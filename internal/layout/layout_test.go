package layout

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDefaultDimensions(t *testing.T) {
	dc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := dc.Config
	wantRows := cfg.Aisles * 2
	wantRacks := wantRows * cfg.RacksPerRow
	wantServers := wantRacks * cfg.ServersPerRack
	if len(dc.Aisles) != cfg.Aisles {
		t.Errorf("aisles = %d, want %d", len(dc.Aisles), cfg.Aisles)
	}
	if len(dc.Rows) != wantRows {
		t.Errorf("rows = %d, want %d", len(dc.Rows), wantRows)
	}
	if len(dc.Racks) != wantRacks {
		t.Errorf("racks = %d, want %d", len(dc.Racks), wantRacks)
	}
	if len(dc.Servers) != wantServers {
		t.Errorf("servers = %d, want %d", len(dc.Servers), wantServers)
	}
	if len(dc.UPSes) != NumUPS {
		t.Errorf("UPSes = %d, want %d", len(dc.UPSes), NumUPS)
	}
}

func TestNewSmallIsTwoRows80Servers(t *testing.T) {
	dc, err := New(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(dc.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(dc.Rows))
	}
	if len(dc.Servers) != 80 {
		t.Errorf("servers = %d, want 80 (paper's real-cluster scale)", len(dc.Servers))
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.Aisles = 0
	if _, err := New(bad); err == nil {
		t.Error("expected error for zero aisles")
	}
	bad = DefaultConfig()
	bad.ServersPerRack = -1
	if _, err := New(bad); err == nil {
		t.Error("expected error for negative servers per rack")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Servers {
		if a.Servers[i].InletOffsetC != b.Servers[i].InletOffsetC {
			t.Fatalf("server %d inlet offset differs across identical seeds", i)
		}
		for g := range a.Servers[i].GPUTempGainC {
			if a.Servers[i].GPUTempGainC[g] != b.Servers[i].GPUTempGainC[g] {
				t.Fatalf("server %d GPU %d gain differs across identical seeds", i, g)
			}
		}
	}
}

func TestSeedChangesHeterogeneity(t *testing.T) {
	cfg := DefaultConfig()
	a, _ := New(cfg)
	cfg.Seed = 1234
	b, _ := New(cfg)
	same := true
	for i := range a.Servers {
		if a.Servers[i].InletOffsetC != b.Servers[i].InletOffsetC {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical heterogeneity")
	}
}

func TestSpatialSpreadMatchesPaper(t *testing.T) {
	dc, _ := New(DefaultConfig())
	// Rack-position spread within a row should be on the order of 1–2.5 °C
	// (Fig. 4: up to 2 °C), and end racks warmer than front racks.
	row := dc.Rows[0]
	first := row.Racks[0].Servers[0].InletOffsetC
	last := row.Racks[len(row.Racks)-1].Servers[0].InletOffsetC
	if last <= first {
		t.Errorf("end rack (%.2f) not warmer than front rack (%.2f)", last, first)
	}
	if d := last - first; d < 0.4 || d > 3.0 {
		t.Errorf("rack spread = %.2f °C, want within (0.4, 3.0)", d)
	}
}

func TestGPUHeterogeneitySpread(t *testing.T) {
	dc, _ := New(DefaultConfig())
	// At full load the 8 GPUs of one server should spread by several °C,
	// up to ~10 °C (Fig. 8), and odd GPU numbers should be hotter on
	// average across the fleet (Fig. 9 shows even IDs cooler).
	maxSpread := 0.0
	oddSum, evenSum := 0.0, 0.0
	n := 0
	for _, s := range dc.Servers {
		lo, hi := math.Inf(1), math.Inf(-1)
		for g, gain := range s.GPUTempGainC {
			if gain < lo {
				lo = gain
			}
			if gain > hi {
				hi = gain
			}
			if (g+1)%2 == 1 {
				oddSum += gain
			} else {
				evenSum += gain
			}
		}
		if hi-lo > maxSpread {
			maxSpread = hi - lo
		}
		n++
	}
	if maxSpread < 5 || maxSpread > 12 {
		t.Errorf("max intra-server gain spread = %.1f °C, want within [5, 12]", maxSpread)
	}
	if oddSum <= evenSum {
		t.Error("odd-numbered GPUs should be hotter than even-numbered on aggregate")
	}
}

func TestRowPowerProvisioning(t *testing.T) {
	dc, _ := New(DefaultConfig())
	spec := Spec(dc.Config.GPU)
	for _, row := range dc.Rows {
		want := float64(len(row.Servers)) * spec.ServerTDPW * (1 + powerMargin)
		if math.Abs(row.ProvPowerW-want) > 1 {
			t.Errorf("row %d provisioned power = %v, want %v", row.ID, row.ProvPowerW, want)
		}
	}
}

func TestAisleAirflowProvisioning(t *testing.T) {
	dc, _ := New(DefaultConfig())
	spec := Spec(dc.Config.GPU)
	design := spec.AirflowIdleCFM + (spec.AirflowMaxCFM-spec.AirflowIdleCFM)*0.85
	for _, aisle := range dc.Aisles {
		n := float64(len(aisle.Servers()))
		want := n * design * (1 + airflowMargin)
		if math.Abs(aisle.ProvAirflowCFM-want) > 1 {
			t.Errorf("aisle %d airflow = %v, want %v", aisle.ID, aisle.ProvAirflowCFM, want)
		}
		// Provisioned below the theoretical all-fans-at-max aggregate but
		// above the idle aggregate.
		if aisle.ProvAirflowCFM >= n*spec.AirflowMaxCFM {
			t.Error("AHUs must not be provisioned for every fan at 100%")
		}
		if aisle.ProvAirflowCFM <= n*spec.AirflowIdleCFM {
			t.Error("AHUs must cover well above idle airflow")
		}
	}
}

func TestUPSAssignmentCoversAllRows(t *testing.T) {
	dc, _ := New(DefaultConfig())
	seen := map[int]bool{}
	for _, ups := range dc.UPSes {
		for _, r := range ups.Rows {
			if seen[r] {
				t.Errorf("row %d assigned to multiple UPSes", r)
			}
			seen[r] = true
		}
	}
	if len(seen) != len(dc.Rows) {
		t.Errorf("UPSes cover %d rows, want %d", len(seen), len(dc.Rows))
	}
}

func TestAddRacksOversubscription(t *testing.T) {
	dc, _ := New(DefaultConfig())
	before := len(dc.Servers)
	rowPower := dc.Rows[0].ProvPowerW
	aisleAir := dc.Aisles[0].ProvAirflowCFM
	dc.AddRacks(0.4)
	if len(dc.Servers) <= before {
		t.Fatal("AddRacks added no servers")
	}
	grown := float64(len(dc.Servers)-before) / float64(before)
	if grown < 0.3 || grown > 0.5 {
		t.Errorf("oversubscription grew fleet by %.0f%%, want ≈ 40%%", grown*100)
	}
	if dc.Rows[0].ProvPowerW != rowPower {
		t.Error("row power envelope must not change under oversubscription")
	}
	if dc.Aisles[0].ProvAirflowCFM != aisleAir {
		t.Error("aisle airflow envelope must not change under oversubscription")
	}
	// New servers must be indexed contiguously and belong to valid rows.
	for i, s := range dc.Servers {
		if s.ID != i {
			t.Fatalf("server ID %d at index %d", s.ID, i)
		}
		if s.Row < 0 || s.Row >= len(dc.Rows) {
			t.Fatalf("server %d has invalid row %d", s.ID, s.Row)
		}
	}
}

func TestAddRacksZeroRatioNoop(t *testing.T) {
	dc, _ := New(DefaultConfig())
	before := len(dc.Servers)
	dc.AddRacks(0)
	if len(dc.Servers) != before {
		t.Error("AddRacks(0) must be a no-op")
	}
}

func TestSpecValues(t *testing.T) {
	a := Spec(A100)
	if a.ServerTDPW != 6500 {
		t.Errorf("A100 server TDP = %v, want 6500 (paper §1)", a.ServerTDPW)
	}
	if a.ThrottleTempC != 85 {
		t.Errorf("A100 throttle = %v, want 85", a.ThrottleTempC)
	}
	// 840 CFM at 80% PWM (paper §2.1) ⇒ max ≈ 1050.
	if math.Abs(a.AirflowMaxCFM*0.8-840) > 1 {
		t.Errorf("A100 airflow at 80%% = %v, want 840", a.AirflowMaxCFM*0.8)
	}
	h := Spec(H100)
	if h.ServerTDPW != 10200 {
		t.Errorf("H100 server TDP = %v, want 10200", h.ServerTDPW)
	}
	if math.Abs(h.AirflowMaxCFM*0.8-1105) > 1 {
		t.Errorf("H100 airflow at 80%% = %v, want 1105", h.AirflowMaxCFM*0.8)
	}
	if A100.String() != "A100" || H100.String() != "H100" {
		t.Error("GPUModel String() wrong")
	}
	if GPUModel(9).String() == "" {
		t.Error("unknown GPUModel String() empty")
	}
}

// Property: generation never produces a server whose combined heterogeneity
// would exceed physical plausibility (inlet offsets within ±4 °C, gains
// positive).
func TestHeterogeneityBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := SmallConfig()
		cfg.Seed = seed
		dc, err := New(cfg)
		if err != nil {
			return false
		}
		for _, s := range dc.Servers {
			if s.InletOffsetC < -4 || s.InletOffsetC > 4 {
				return false
			}
			for _, g := range s.GPUTempGainC {
				if g <= 0 || g > 60 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMixedFleet checks per-aisle heterogeneous generation: the trailing
// MixFraction of aisles carry MixGPU servers with matching power/airflow
// provisioning, and MixFraction 0 reproduces the uniform fleet exactly.
func TestMixedFleet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Aisles = 4
	cfg.MixGPU = H100
	cfg.MixFraction = 0.5
	dc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dc.Heterogeneous() {
		t.Fatal("mixed config generated a homogeneous fleet")
	}
	models := dc.Models()
	if len(models) != 2 || models[0] != A100 || models[1] != H100 {
		t.Fatalf("Models() = %v, want [A100 H100]", models)
	}
	for _, srv := range dc.Servers {
		want := A100
		if srv.Aisle >= 2 {
			want = H100
		}
		if srv.GPU.Model != want {
			t.Fatalf("server %d in aisle %d has model %v, want %v", srv.ID, srv.Aisle, srv.GPU.Model, want)
		}
	}
	// Envelopes are sized for the hardware they feed.
	a100Row, h100Row := dc.Rows[0], dc.Rows[len(dc.Rows)-1]
	if h100Row.ProvPowerW <= a100Row.ProvPowerW {
		t.Errorf("H100 row provisioned at %.0f W, A100 at %.0f W; want H100 higher", h100Row.ProvPowerW, a100Row.ProvPowerW)
	}
	if dc.Aisles[3].ProvAirflowCFM <= dc.Aisles[0].ProvAirflowCFM {
		t.Error("H100 aisle airflow not provisioned above A100 aisle")
	}

	// Zero mix fraction is byte-for-byte the uniform fleet.
	uni, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.MixGPU = H100
	cfg2.MixFraction = 0
	mix0, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(uni.Servers) != len(mix0.Servers) {
		t.Fatal("server counts differ")
	}
	for i := range uni.Servers {
		if uni.Servers[i].InletOffsetC != mix0.Servers[i].InletOffsetC ||
			uni.Servers[i].GPU.Model != mix0.Servers[i].GPU.Model {
			t.Fatalf("server %d differs between uniform and mix-0 fleets", i)
		}
	}
}

// TestMixedFleetValidation pins the config error paths.
func TestMixedFleetValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MixFraction = 1.5
	if _, err := New(cfg); err == nil {
		t.Error("mix fraction 1.5 accepted")
	}
	cfg.MixFraction = -0.1
	if _, err := New(cfg); err == nil {
		t.Error("negative mix fraction accepted")
	}
}

// TestServerIndexMatchesServers checks the server index against every
// server's own fields on a mixed A100/H100 fleet, after New and again after
// AddRacks appends servers to every row.
func TestServerIndexMatchesServers(t *testing.T) {
	cfg := SmallConfig()
	cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 3, H100, 0.4
	dc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dc.Heterogeneous() {
		t.Fatal("fleet must mix GPU generations")
	}
	check := func(when string) {
		t.Helper()
		n := len(dc.Servers)
		if len(dc.ServerRow) != n || len(dc.ServerAisle) != n || len(dc.ServerModel) != n {
			t.Fatalf("%s: index holds %d rows, %d aisles and %d models for %d servers",
				when, len(dc.ServerRow), len(dc.ServerAisle), len(dc.ServerModel), n)
		}
		for id, s := range dc.Servers {
			if s.ID != id || int(dc.ServerRow[id]) != s.Row || int(dc.ServerAisle[id]) != s.Aisle || GPUModel(dc.ServerModel[id]) != s.GPU.Model {
				t.Fatalf("%s: server %d (ID %d, row %d, aisle %d, %v) indexed as row %d, aisle %d, %v",
					when, id, s.ID, s.Row, s.Aisle, s.GPU.Model, dc.ServerRow[id], dc.ServerAisle[id], GPUModel(dc.ServerModel[id]))
			}
		}
	}
	check("after New")
	before := len(dc.Servers)
	dc.AddRacks(0.25)
	if len(dc.Servers) <= before {
		t.Fatal("AddRacks added no server")
	}
	check("after AddRacks")
}
