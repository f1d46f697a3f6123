package cluster

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
)

func newTestState(t *testing.T) *State {
	t.Helper()
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: 24 * time.Hour, Endpoints: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewState(dc, w)
}

func TestNewStateInitialization(t *testing.T) {
	st := newTestState(t)
	if len(st.ServerVM) != len(st.DC.Servers) {
		t.Fatal("ServerVM size mismatch")
	}
	for _, vm := range st.ServerVM {
		if vm != -1 {
			t.Fatal("servers must start empty")
		}
	}
	for _, cap := range st.ServerFreqCap {
		if cap != 1 {
			t.Fatal("servers must start uncapped")
		}
	}
	if st.NumFree() != len(st.DC.Servers) {
		t.Fatal("all servers must start free")
	}
	if st.AirflowLimitFrac != 1 {
		t.Fatal("airflow limit must start at 1")
	}
}

func TestPlaceAndRemove(t *testing.T) {
	st := newTestState(t)
	// Find one IaaS and one SaaS VM.
	iaasID, saasID := -1, -1
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.IaaS && iaasID == -1 {
			iaasID = i
		}
		if vm.Spec.Kind == trace.SaaS && saasID == -1 {
			saasID = i
		}
	}
	if err := st.Place(iaasID, 0); err != nil {
		t.Fatal(err)
	}
	if st.VMs[iaasID].Instance != nil {
		t.Error("IaaS VM must not get an instance")
	}
	if err := st.Place(saasID, 1); err != nil {
		t.Fatal(err)
	}
	if st.VMs[saasID].Instance == nil {
		t.Error("SaaS VM must get a serving instance")
	}
	// Double placement fails.
	if err := st.Place(iaasID, 2); err == nil {
		t.Error("placing an already-placed VM must fail")
	}
	if err := st.Place(saasID+1, 0); err == nil {
		t.Error("placing onto an occupied server must fail")
	}
	// Out-of-range checks.
	if err := st.Place(-1, 0); err == nil {
		t.Error("negative VM must fail")
	}
	if err := st.Place(0, 99999); err == nil {
		t.Error("out-of-range server must fail")
	}
	st.Remove(iaasID)
	if st.ServerVM[0] != -1 || st.VMs[iaasID].Server != -1 {
		t.Error("Remove must unbind")
	}
}

func TestRowMix(t *testing.T) {
	st := newTestState(t)
	row0 := st.DC.Rows[0].Servers
	placed := 0
	for _, vm := range st.VMs {
		if placed >= 4 {
			break
		}
		if vm.Server == -1 {
			vmID := vm.Spec.ID
			if err := st.Place(vmID, row0[placed].ID); err != nil {
				t.Fatal(err)
			}
			placed++
		}
	}
	iaas, saas := st.RowMix(0)
	if iaas+saas != 4 {
		t.Errorf("row mix total = %d, want 4", iaas+saas)
	}
}

func TestEndpointInstances(t *testing.T) {
	st := newTestState(t)
	count := 0
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 && count < 3 {
			if err := st.Place(i, count); err != nil {
				t.Fatal(err)
			}
			count++
		}
	}
	got := st.EndpointInstances(0)
	if len(got) != count {
		t.Errorf("endpoint instances = %d, want %d", len(got), count)
	}
}

func TestRecordHistoryDownsamples(t *testing.T) {
	st := newTestState(t)
	tick := time.Minute
	for i := 0; i < 25; i++ {
		st.RowPowerW[0] = float64(i)
		st.RecordHistory(tick)
	}
	// 25 minutes at 10-minute resolution ⇒ 2 samples, the row power at
	// each flush.
	if h := st.RowPowerHist[0]; len(h) != 2 || h[0] != 9 || h[1] != 19 {
		t.Errorf("history = %v, want [9 19]", h)
	}
}

// TestHistoryBounded: past HistoryMaxSamples samples a row's history holds
// exactly the newest HistoryMaxSamples, oldest first.
func TestHistoryBounded(t *testing.T) {
	st := newTestState(t)
	const extra = 5000
	for i := 0; i < HistoryMaxSamples+extra; i++ {
		st.RowPowerW[0] = float64(i)
		st.RecordHistory(HistoryRes)
	}
	h := st.RowPowerHist[0]
	if len(h) != HistoryMaxSamples {
		t.Fatalf("history holds %d samples, want %d", len(h), HistoryMaxSamples)
	}
	for i, v := range h {
		if want := float64(extra + i); v != want {
			t.Fatalf("sample %d = %v, want %v", i, v, want)
		}
	}
}

// TestIndexesTrackPlaceRemove verifies the incremental endpoint index and
// free-server count stay consistent with a full scan through churn.
func TestIndexesTrackPlaceRemove(t *testing.T) {
	st := newTestState(t)
	var placed []int
	srv := 0
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 && len(placed) < 6 {
			if err := st.Place(i, srv); err != nil {
				t.Fatal(err)
			}
			placed = append(placed, i)
			srv++
		}
	}
	check := func() {
		t.Helper()
		var want []*VM
		for _, vm := range st.VMs {
			if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 && vm.Server >= 0 && vm.Instance != nil {
				want = append(want, vm)
			}
		}
		got := st.EndpointInstances(0)
		if len(got) != len(want) {
			t.Fatalf("index has %d instances, scan finds %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("index order diverges from scan at %d", i)
			}
		}
		free := 0
		for _, vm := range st.ServerVM {
			if vm == -1 {
				free++
			}
		}
		if st.NumFree() != free {
			t.Fatalf("NumFree = %d, scan finds %d free servers", st.NumFree(), free)
		}
	}
	check()
	// Remove from the middle, then re-place on a different server
	// (migration-shaped churn).
	mid := placed[len(placed)/2]
	st.Remove(mid)
	check()
	if err := st.Place(mid, len(st.ServerVM)-1); err != nil {
		t.Fatal(err)
	}
	check()
	for _, id := range placed {
		st.Remove(id)
	}
	check()
	if st.NumFree() != len(st.ServerVM) {
		t.Errorf("NumFree = %d after removing all, want %d", st.NumFree(), len(st.ServerVM))
	}
}

// TestEndpointInstancesAllocFree locks in the O(1) zero-allocation lookup
// the routing hot loop depends on.
func TestEndpointInstancesAllocFree(t *testing.T) {
	st := newTestState(t)
	count := 0
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 && count < 5 {
			if err := st.Place(i, count); err != nil {
				t.Fatal(err)
			}
			count++
		}
	}
	var got []*VM
	allocs := testing.AllocsPerRun(200, func() {
		got = st.EndpointInstances(0)
	})
	if allocs != 0 {
		t.Errorf("EndpointInstances allocates %.1f times per call, want 0", allocs)
	}
	if len(got) != count {
		t.Errorf("lookup returned %d instances, want %d", len(got), count)
	}
}

func TestEstimateVMPeakLoad(t *testing.T) {
	st := newTestState(t)
	// Unknown customer ⇒ assume peak (§4.1).
	unknown := trace.VMSpec{Kind: trace.IaaS, Customer: 999}
	if got := st.EstimateVMPeakLoad(unknown); got != 1 {
		t.Errorf("unknown customer estimate = %v, want 1", got)
	}
	st.ObserveCustomerLoad(7, 0.6)
	st.ObserveCustomerLoad(7, 0.4) // peaks keep the max
	known := trace.VMSpec{Kind: trace.IaaS, Customer: 7}
	if got := st.EstimateVMPeakLoad(known); got != 0.6 {
		t.Errorf("known customer estimate = %v, want 0.6", got)
	}
	// SaaS with no history ⇒ peak.
	saas := trace.VMSpec{Kind: trace.SaaS, Endpoint: 0}
	if got := st.EstimateVMPeakLoad(saas); got != 1 {
		t.Errorf("unknown endpoint estimate = %v, want 1", got)
	}
	st.ObserveEndpointDemand(0, 100) // tiny demand vs capacity
	if got := st.EstimateVMPeakLoad(saas); got >= 1 {
		t.Errorf("known endpoint estimate = %v, want < 1", got)
	}
}

// TestSeedHistoryBelowObservedPeak seeds a customer peak below one already
// observed. The seed replaces the estimate, and a later observation between
// the two is a new peak that must reach CustomerPeakLoad and move PeakEpoch.
func TestSeedHistoryBelowObservedPeak(t *testing.T) {
	st := newTestState(t)
	st.ObserveCustomerLoad(0, 0.8)
	st.SeedHistory(map[int]float64{0: 0.3}, nil)
	if got := st.CustomerPeakLoad[0]; got != 0.3 {
		t.Fatalf("seeded peak = %v, want 0.3", got)
	}
	epoch := st.PeakEpoch
	st.ObserveCustomerLoad(0, 0.5)
	if got := st.CustomerPeakLoad[0]; got != 0.5 {
		t.Errorf("peak after observing 0.5 = %v, want 0.5", got)
	}
	if st.PeakEpoch == epoch {
		t.Error("a new peak left PeakEpoch unchanged")
	}
}

// TestNewStateReadsEachGenerationsProfile builds states on two-aisle small
// layouts whose second aisle is H100. NewState alone must give every server
// its own generation's shared serving profile (by pointer) and published
// spec. With every aisle H100 the base generation, A100, has no server, yet
// the SLOs and the per-VM capacity EstimateVMPeakLoad divides by still come
// from its profile.
func TestNewStateReadsEachGenerationsProfile(t *testing.T) {
	for _, mix := range []float64{0.5, 1} {
		cfg := layout.SmallConfig()
		cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 2, layout.H100, mix
		dc, err := layout.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.Generate(trace.WorkloadConfig{
			Servers: len(dc.Servers), SaaSFraction: 0.5,
			Duration: 24 * time.Hour, Endpoints: 3, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		st := NewState(dc, w)
		seen := map[layout.GPUModel]int{}
		for i, s := range dc.Servers {
			m := s.GPU.Model
			seen[m]++
			if got, want := st.ProfileFor(i), llm.DefaultProfile(m); got != want {
				t.Fatalf("mix %v, server %d (%v): ProfileFor = %p, want the shared %v profile %p", mix, i, m, got, m, want)
			}
			if got, want := st.ServerGPUSpec(i), layout.Spec(m); !reflect.DeepEqual(*got, want) {
				t.Fatalf("mix %v, server %d (%v): ServerGPUSpec = %+v, want %+v", mix, i, m, *got, want)
			}
		}
		if seen[layout.H100] == 0 || (seen[layout.A100] == 0) != (mix == 1) {
			t.Fatalf("mix %v: servers per generation %v", mix, seen)
		}
		base := llm.DefaultProfile(layout.A100)
		if st.SLOs != base.SLOs {
			t.Errorf("mix %v: SLOs %+v, want the base generation's %+v", mix, st.SLOs, base.SLOs)
		}
		def, _ := base.Entry(llm.DefaultConfig())
		st.ObserveEndpointDemand(0, def.Goodput/4)
		if got := st.EstimateVMPeakLoad(trace.VMSpec{Kind: trace.SaaS, Endpoint: 0}); got != 0.25 {
			t.Errorf("mix %v: endpoint estimate %v, want 0.25 of the base generation's capacity", mix, got)
		}
	}
}

func TestAisleLimitUnderEmergency(t *testing.T) {
	st := newTestState(t)
	normal := st.AisleLimitCFM(0)
	st.AirflowLimitFrac = 0.9
	if got := st.AisleLimitCFM(0); got != normal*0.9 {
		t.Errorf("emergency aisle limit = %v, want %v", got, normal*0.9)
	}
}

// TestIndexesMatchRecountProperty applies random Place, Remove and Move
// calls to a mixed IaaS/SaaS, A100/H100 fleet. After every call each
// incremental index must equal a recount from VMs, every row the call
// touched must have advanced its RowOccEpoch and no other row may have; a
// call the contract rejects must return an error and change nothing.
func TestIndexesMatchRecountProperty(t *testing.T) {
	cfg := layout.SmallConfig()
	cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 2, layout.H100, 0.5
	dc, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: 24 * time.Hour, Endpoints: 3, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(dc, w)
	n := len(st.ServerVM)
	rng := rand.New(rand.NewPCG(1, 2))
	ops := map[string]int{}
	for step := 0; step < 4000; step++ {
		vmID := rng.IntN(len(st.VMs))
		srv := rng.IntN(n+2) - 1 // one out-of-range ID at each end
		vm := st.VMs[vmID]
		st.ServerFreqCap[rng.IntN(n)] = 0.5 // a capped server must reset when freed
		from := vm.Server
		inRange := srv >= 0 && srv < n
		free := inRange && st.ServerVM[srv] == -1
		before := snapshotIndexes(st)
		var op string
		var touched []int
		var wantErr bool
		var why string // the contract's reason to reject a move
		err = nil
		switch rng.IntN(3) {
		case 0:
			op = "place"
			wantErr = !free || vm.Server != -1
			if !wantErr {
				touched = []int{st.DC.Servers[srv].Row}
			}
			err = st.Place(vmID, srv)
		case 1:
			op = "remove"
			if vm.Server != -1 {
				touched = []int{st.DC.Servers[vm.Server].Row}
			}
			st.Remove(vmID)
		default:
			op = "move"
			switch {
			case !inRange:
				why = ": out-of-range server"
			case vm.Server == -1:
				why = ": unplaced VM"
			case vm.Spec.Kind != trace.SaaS:
				why = ": IaaS VM"
			case !free:
				why = ": occupied server"
			}
			wantErr = why != ""
			if !wantErr {
				touched = []int{st.DC.Servers[vm.Server].Row, st.DC.Servers[srv].Row}
			}
			err = st.Move(vmID, srv)
		}
		if (err != nil) != wantErr {
			t.Fatalf("step %d: %s(VM %d, server %d) error = %v, want error %v", step, op, vmID, srv, err, wantErr)
		}
		after := snapshotIndexes(st)
		if err != nil {
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("step %d: rejected %s(VM %d, server %d) changed the indexes", step, op, vmID, srv)
			}
			ops[op+" rejected"+why]++
			continue
		}
		if len(touched) > 0 {
			ops[op]++
		}
		checkIndexesRecount(t, st)
		if from != -1 && vm.Server != from && st.ServerFreqCap[from] != 1 {
			t.Fatalf("step %d: %s(VM %d, server %d) left the freed server %d capped at %v", step, op, vmID, srv, from, st.ServerFreqCap[from])
		}
		for row := range st.RowOccEpoch {
			bumped := after.epoch[row] > before.epoch[row]
			want := false
			for _, r := range touched {
				want = want || r == row
			}
			if bumped != want {
				t.Fatalf("step %d: %s(VM %d, server %d) bumped row %d epoch = %v, want %v", step, op, vmID, srv, row, bumped, want)
			}
		}
	}
	for _, op := range []string{"place", "remove", "move", "place rejected",
		"move rejected: out-of-range server", "move rejected: unplaced VM",
		"move rejected: IaaS VM", "move rejected: occupied server"} {
		if ops[op] == 0 {
			t.Errorf("no %s call exercised", op)
		}
	}
}

// indexSnapshot is every index Place, Remove and Move maintain, copied.
type indexSnapshot struct {
	serverVM   []int
	serverInst []*llm.Instance
	vmServer   []int
	vmInst     []*llm.Instance
	instModel  []layout.GPUModel
	endpoints  [][]*VM
	rowIaaS    []int
	rowSaaS    []int
	free       int
	epoch      []uint64
	freqCap    []float64
}

func snapshotIndexes(st *State) indexSnapshot {
	s := indexSnapshot{
		serverVM:   append([]int(nil), st.ServerVM...),
		serverInst: append([]*llm.Instance(nil), st.ServerInst...),
		free:       st.NumFree(),
		epoch:      append([]uint64(nil), st.RowOccEpoch...),
		freqCap:    append([]float64(nil), st.ServerFreqCap...),
	}
	for _, vm := range st.VMs {
		s.vmServer = append(s.vmServer, vm.Server)
		s.vmInst = append(s.vmInst, vm.Instance)
		m := layout.GPUModel(-1)
		if vm.Instance != nil {
			m = vm.Instance.Spec.Model
		}
		s.instModel = append(s.instModel, m)
	}
	for ep := range st.Work.Endpoints {
		s.endpoints = append(s.endpoints, append([]*VM(nil), st.EndpointInstances(ep)...))
	}
	for row := range st.DC.Rows {
		iaas, saas := st.RowMix(row)
		s.rowIaaS = append(s.rowIaaS, iaas)
		s.rowSaaS = append(s.rowSaaS, saas)
	}
	return s
}

// checkIndexesRecount recounts every index from VMs and compares.
func checkIndexesRecount(t *testing.T, st *State) {
	t.Helper()
	serverVM := make([]int, len(st.ServerVM))
	for i := range serverVM {
		serverVM[i] = -1
	}
	serverInst := make([]*llm.Instance, len(st.ServerVM))
	endpoints := make([][]*VM, len(st.Work.Endpoints))
	rowIaaS := make([]int, len(st.DC.Rows))
	rowSaaS := make([]int, len(st.DC.Rows))
	free := len(st.ServerVM)
	for id, vm := range st.VMs {
		if vm.Server == -1 {
			if vm.Instance != nil {
				t.Fatalf("unplaced VM %d keeps an instance", id)
			}
			continue
		}
		serverVM[vm.Server] = id
		serverInst[vm.Server] = vm.Instance
		free--
		row := st.DC.Servers[vm.Server].Row
		if vm.Spec.Kind == trace.IaaS {
			rowIaaS[row]++
			if vm.Instance != nil {
				t.Fatalf("IaaS VM %d has an instance", id)
			}
			continue
		}
		rowSaaS[row]++
		endpoints[vm.Spec.Endpoint] = append(endpoints[vm.Spec.Endpoint], vm)
		if vm.Instance == nil {
			t.Fatalf("placed SaaS VM %d has no instance", id)
		}
		if got, want := vm.Instance.Spec.Model, st.ServerGPUSpec(vm.Server).Model; got != want {
			t.Fatalf("VM %d's instance describes %v hardware on a %v server", id, got, want)
		}
	}
	if !reflect.DeepEqual(st.ServerVM, serverVM) {
		t.Fatal("ServerVM differs from the VMs' Server fields")
	}
	for i, in := range serverInst {
		if st.ServerInst[i] != in {
			t.Fatalf("ServerInst[%d] differs from its VM's Instance", i)
		}
	}
	for ep, want := range endpoints {
		got := st.EndpointInstances(ep)
		if len(got) != len(want) {
			t.Fatalf("endpoint %d lists %d instances, recount %d", ep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("endpoint %d instance %d is VM %d, want VM %d (ascending VM ID)", ep, i, got[i].Spec.ID, want[i].Spec.ID)
			}
		}
	}
	for row := range st.DC.Rows {
		if iaas, saas := st.RowMix(row); iaas != rowIaaS[row] || saas != rowSaaS[row] {
			t.Fatalf("RowMix(%d) = (%d, %d), recount (%d, %d)", row, iaas, saas, rowIaaS[row], rowSaaS[row])
		}
	}
	if st.NumFree() != free {
		t.Fatalf("NumFree = %d, recount %d", st.NumFree(), free)
	}
}
