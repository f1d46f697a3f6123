package core

import (
	"math"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
)

// newComponentState builds a small cluster state plus profiles for direct
// component tests (no simulator loop).
func newComponentState(t *testing.T) (*cluster.State, *Profiles) {
	t.Helper()
	return newComponentStateOn(t, layout.SmallConfig())
}

// newComponentStateOn is newComponentState on the layout cfg describes.
func newComponentStateOn(t *testing.T, cfg layout.Config) (*cluster.State, *Profiles) {
	t.Helper()
	dc, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: 24 * time.Hour, Endpoints: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := cluster.NewState(dc, w)
	st.Tick = time.Minute
	prof, err := BuildProfiles(dc)
	if err != nil {
		t.Fatal(err)
	}
	// Plausible telemetry baseline.
	for i := range st.ServerInletC {
		st.ServerInletC[i] = 24
		st.ServerPowerW[i] = 2000
	}
	return st, prof
}

func findVM(st *cluster.State, kind trace.VMKind) *cluster.VM {
	for _, vm := range st.VMs {
		if vm.Spec.Kind == kind && vm.Server == -1 {
			return vm
		}
	}
	return nil
}

// --- allocator -------------------------------------------------------------

func TestAllocatorPlacesIaaSCoolerThanSaaS(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	iaas := findVM(st, trace.IaaS)
	saas := findVM(st, trace.SaaS)
	// Hot customer: force peak estimate 1.0 by leaving history empty.
	iaasSrv, ok := alloc.place(st, iaas)
	if !ok {
		t.Fatal("IaaS placement failed on an empty cluster")
	}
	saasSrv, ok := alloc.place(st, saas)
	if !ok {
		t.Fatal("SaaS placement failed on an empty cluster")
	}
	// Project both chosen servers at full load: the IaaS pick must be
	// cooler than the SaaS pick (rule 2: IaaS → cool, SaaS → warm).
	proj := func(server int) float64 {
		inlet := prof.Inlet.Predict(server, 34, 0.8)
		hot := 0.0
		for g := 0; g < st.GPUsPerServer; g++ {
			if tc := prof.GPUTemp.Predict(server, g, inlet, 1); tc > hot {
				hot = tc
			}
		}
		return hot
	}
	if proj(iaasSrv) >= proj(saasSrv) {
		t.Errorf("IaaS server projects %.1f °C, SaaS %.1f °C; want IaaS cooler", proj(iaasSrv), proj(saasSrv))
	}
}

func TestAllocatorSaaSAvoidsThrottleRange(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	saas := findVM(st, trace.SaaS)
	srv, ok := alloc.place(st, saas)
	if !ok {
		t.Fatal("placement failed")
	}
	inlet := prof.Inlet.Predict(srv, 34, 0.8)
	for g := 0; g < st.GPUsPerServer; g++ {
		if tc := prof.GPUTemp.Predict(srv, g, inlet, 1); tc > st.Spec.ThrottleTempC {
			t.Errorf("SaaS placed where full load projects %.1f °C (above throttle)", tc)
		}
	}
}

func TestAllocatorBalancesMix(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	// Place 30 VMs alternating kinds and check the per-row mix stays
	// reasonably balanced (rule 3).
	var queue []*cluster.VM
	var iaasQ, saasQ []*cluster.VM
	for _, vm := range st.VMs {
		if vm.Spec.Kind == trace.IaaS {
			iaasQ = append(iaasQ, vm)
		} else {
			saasQ = append(saasQ, vm)
		}
	}
	for i := 0; i < 15 && i < len(iaasQ) && i < len(saasQ); i++ {
		queue = append(queue, iaasQ[i], saasQ[i])
	}
	for _, vm := range queue {
		srv, ok := alloc.place(st, vm)
		if !ok {
			break
		}
		if err := st.Place(vm.Spec.ID, srv); err != nil {
			t.Fatal(err)
		}
	}
	for row := range st.DC.Rows {
		iaas, saas := st.RowMix(row)
		if iaas+saas == 0 {
			continue
		}
		if d := iaas - saas; d > 8 || d < -8 {
			t.Errorf("row %d badly imbalanced: %d IaaS vs %d SaaS", row, iaas, saas)
		}
	}
}

func TestAllocatorUsesCustomerHistory(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	// A mild customer (peak 0.4) should be allowed onto warmer hardware
	// than a hot one (peak 1.0), preserving cool servers.
	st.ObserveCustomerLoad(0, 0.4)
	st.ObserveCustomerLoad(1, 1.0)
	mild := &cluster.VM{Spec: trace.VMSpec{ID: 0, Kind: trace.IaaS, Customer: 0}, Server: -1}
	hot := &cluster.VM{Spec: trace.VMSpec{ID: 1, Kind: trace.IaaS, Customer: 1}, Server: -1}
	mildSrv, ok := alloc.place(st, mild)
	if !ok {
		t.Fatal("mild placement failed")
	}
	hotSrv, ok := alloc.place(st, hot)
	if !ok {
		t.Fatal("hot placement failed")
	}
	gain := func(server int) float64 {
		hi := 0.0
		for _, g := range st.DC.Servers[server].GPUTempGainC {
			if g > hi {
				hi = g
			}
		}
		return hi
	}
	if gain(mildSrv) < gain(hotSrv)-2 {
		t.Errorf("mild VM took a markedly cooler server (gain %.1f) than the hot VM (%.1f)",
			gain(mildSrv), gain(hotSrv))
	}
}

func TestAllocatorValidatorRejectsWhenEnvelopesFull(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	// Fill the cluster completely with presumed-peak VMs so predicted row
	// peaks leave no slack; the validator must then find no candidate.
	id := 0
	for _, vm := range st.VMs {
		if id >= len(st.ServerVM) {
			break
		}
		if vm.Server == -1 {
			if err := st.Place(vm.Spec.ID, id); err == nil {
				id++
			}
		}
	}
	extra := &cluster.VM{Spec: trace.VMSpec{ID: 9999, Kind: trace.IaaS, Customer: 99}, Server: -1}
	if _, ok := alloc.place(st, extra); ok {
		t.Error("allocator placed a VM on a full cluster")
	}
}

// --- router ----------------------------------------------------------------

func setupEndpoint(t *testing.T, st *cluster.State, n int) []*cluster.VM {
	t.Helper()
	servers := make([]int, n)
	rowSize := len(st.DC.Rows[0].Servers)
	for i := range servers {
		// Alternate rows so row-level routing behaviour is observable.
		servers[i] = (i%2)*rowSize + i/2
	}
	return placeEndpoint(t, st, servers...)
}

// placeEndpoint places endpoint 0's SaaS VMs, in VM order, on the given
// servers.
func placeEndpoint(t *testing.T, st *cluster.State, servers ...int) []*cluster.VM {
	t.Helper()
	var vms []*cluster.VM
	for i, vm := range st.VMs {
		if len(vms) == len(servers) {
			break
		}
		if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 {
			if err := st.Place(i, servers[len(vms)]); err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm)
		}
	}
	if len(vms) < len(servers) {
		t.Fatalf("only %d endpoint VMs available", len(vms))
	}
	return vms
}

func TestRouterDeliversAllDemand(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 6)
	rt := &router{prof: prof}
	prompt, output := 3e5, 7.5e4
	rt.route(st, st.Work.Endpoints[0], prompt, output)
	var total float64
	for _, vm := range vms {
		total += vm.Instance.QueueTokens() + vm.Instance.TickEnqueued() - vm.Instance.QueueTokens() // enqueued accumulator
		total += 0
	}
	// Queue tokens only track prompt+decode queues; verify via TickEnqueued.
	total = 0
	for _, vm := range vms {
		total += vm.Instance.TickEnqueued()
	}
	if math.Abs(total-(prompt+output)) > (prompt+output)*0.01 {
		t.Errorf("routed %.0f of %.0f tokens", total, prompt+output)
	}
}

func TestRouterAvoidsHotServers(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 6)
	rt := &router{prof: prof}
	// Make one server thermally critical.
	hot := vms[0].Server
	st.ServerHotGPUTempC[hot] = st.Spec.ThrottleTempC - 1
	// High demand (spread regime) that still fits the safe instances'
	// serving capacity, so nothing overflows onto the risky one.
	rt.route(st, st.Work.Endpoints[0], 9.6e5, 2.4e5)
	hotShare := vms[0].Instance.TickEnqueued()
	var coolMax float64
	for _, vm := range vms[1:] {
		if e := vm.Instance.TickEnqueued(); e > coolMax {
			coolMax = e
		}
	}
	if hotShare >= coolMax*0.2 {
		t.Errorf("hot server got %.0f tokens vs max cool %.0f; want strong avoidance", hotShare, coolMax)
	}
}

func TestRouterAvoidsPressuredRow(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 6)
	rt := &router{prof: prof}
	// Row 0 at 99% of its power limit.
	st.RowPowerW[0] = st.Budget.RowLimitW(0) * 0.99
	rt.route(st, st.Work.Endpoints[0], 7e5, 1.75e5)
	var row0, row1 float64
	for _, vm := range vms {
		if st.DC.Servers[vm.Server].Row == 0 {
			row0 += vm.Instance.TickEnqueued()
		} else {
			row1 += vm.Instance.TickEnqueued()
		}
	}
	if row0 >= row1*0.2 {
		t.Errorf("pressured row got %.0f tokens vs %.0f; want strong avoidance", row0, row1)
	}
}

// reconfigureTo switches an instance to c through c's characterization on
// the instance's own hardware, the profile entry Reconfigure takes.
func reconfigureTo(in *llm.Instance, c llm.Config) {
	e := llm.Characterize(in.Spec, c, in.Work, in.SLOs)
	in.Reconfigure(&e)
}

func TestRouterSkipsReloadingInstances(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 4)
	cfg := vms[0].Instance.Config
	cfg.Model = llm.Llama13B
	reconfigureTo(vms[0].Instance, cfg) // now reloading
	rt := &router{prof: prof}
	rt.route(st, st.Work.Endpoints[0], 1e5, 2.5e4)
	if vms[0].Instance.TickEnqueued() > 0 {
		t.Error("reloading instance received demand")
	}
}

func TestRouterConsolidatesAtLowLoad(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 8)
	rt := &router{prof: prof}
	// Tiny demand: should land on a subset of instances, not all eight.
	rt.route(st, st.Work.Endpoints[0], 5e4, 1.25e4)
	active := 0
	for _, vm := range vms {
		if vm.Instance.TickEnqueued() > 0 {
			active++
		}
	}
	if active > 4 {
		t.Errorf("low demand spread across %d instances; want consolidation", active)
	}
}

func TestRouterOverloadStillServesEveryone(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 4)
	// Everything at risk: temps critical everywhere, so every instance's
	// headroom is 0 and only the even-split fallback serves the demand.
	for i := range st.ServerHotGPUTempC {
		st.ServerHotGPUTempC[i] = st.Spec.ThrottleTempC
	}
	rt := &router{prof: prof}
	rt.route(st, st.Work.Endpoints[0], 4e5, 1e5)
	var total float64
	for _, vm := range vms {
		total += vm.Instance.TickEnqueued()
	}
	if total < 4.9e5 {
		t.Errorf("under fleet-wide risk, demand must still be served (even split); got %.0f", total)
	}
}

// --- configurator ------------------------------------------------------------

func TestConfiguratorDownsizesIdleInstances(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 3)
	cfgtor := newConfigurator(prof)
	// No demand at all: over a few rounds the configurator should settle
	// the instances on a low-power configuration (staggered cadence).
	for tick := 0; tick < 10; tick++ {
		st.Now = time.Duration(tick+1) * time.Minute
		cfgtor.configure(st)
	}
	for _, vm := range vms {
		e, ok := st.ProfileFor(vm.Server).Entry(vm.Instance.Config)
		if !ok {
			t.Fatal("current config missing from profile")
		}
		def, _ := st.ProfileFor(vm.Server).Entry(llm.DefaultConfig())
		if e.AvgServerPowerW >= def.AvgServerPowerW {
			t.Errorf("idle instance still at %.0f W config (default %.0f W)", e.AvgServerPowerW, def.AvgServerPowerW)
		}
		if vm.Instance.Config.Model != llm.Llama70B {
			t.Error("normal operation must not change the model (quality floor 1.0)")
		}
	}
}

func TestConfiguratorUpscalesUnderBacklog(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 1)
	in := vms[0].Instance
	low := llm.DefaultConfig()
	low.FreqFrac = 0.5
	reconfigureTo(in, low)
	// Saturate: enqueue far beyond capacity and step to build backlog.
	in.EnqueueBulk(5e6, 1.25e6)
	in.Step(time.Minute)
	if in.BacklogSecs <= 3 {
		t.Fatal("expected backlog")
	}
	cfgtor := newConfigurator(prof)
	st.Now = time.Minute
	cfgtor.configure(st)
	if in.Config.FreqFrac <= 0.5 {
		t.Errorf("backlogged instance not upscaled: still at f=%.2f", in.Config.FreqFrac)
	}
}

func TestConfiguratorRespectsQualityFloorNormally(t *testing.T) {
	st, prof := newComponentState(t)
	vms := setupEndpoint(t, st, 2)
	cfgtor := newConfigurator(prof)
	// Severe row pressure without an emergency: may downsize config but
	// never the model.
	st.RowPowerW[0] = st.Budget.RowLimitW(0) * 1.2
	for tick := 0; tick < 6; tick++ {
		st.Now = time.Duration(tick+1) * time.Minute
		cfgtor.configure(st)
		for _, vm := range vms {
			vm.Instance.Step(time.Minute)
		}
	}
	for _, vm := range vms {
		if vm.Instance.Config.Model != llm.Llama70B || vm.Instance.Config.Quant != llm.FP16 {
			t.Errorf("normal operation changed model/quant to %v", vm.Instance.Config)
		}
	}
}

func TestConfiguratorAllowsSmallerModelsInEmergency(t *testing.T) {
	st, prof := newComponentState(t)
	_ = setupEndpoint(t, st, 2)
	cfgtor := newConfigurator(prof)
	st.Budget.SetEmergency(0.75)
	st.RowPowerW[0] = st.Budget.RowLimitW(0) * 1.4
	st.RowPowerW[1] = st.Budget.RowLimitW(1) * 1.4
	for i := range st.ServerPowerW {
		st.ServerPowerW[i] = 5500
	}
	changed := false
	for tick := 0; tick < 25; tick++ {
		st.Now = time.Duration(tick+1) * time.Minute
		cfgtor.configure(st)
		for _, vm := range st.VMs {
			if vm.Instance != nil {
				vm.Instance.EnqueueBulk(3e5, 7.5e4) // keep demand present
				vm.Instance.Step(time.Minute)
				if vm.Instance.Config.Model != llm.Llama70B || vm.Instance.Config.Quant != llm.FP16 {
					changed = true
				}
			}
		}
	}
	if !changed {
		t.Error("severe power emergency never engaged smaller/quantized models")
	}
}

// --- baseline ---------------------------------------------------------------

func TestBaselinePacksRows(t *testing.T) {
	st, _ := newComponentState(t)
	b := NewBaseline()
	var servers []int
	for i := 0; i < 10; i++ {
		srv, ok := b.Place(st, st.VMs[i])
		if !ok {
			t.Fatal("baseline placement failed")
		}
		if err := st.Place(st.VMs[i].Spec.ID, srv); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	// All ten in the same row: packing concentrates.
	row := st.DC.Servers[servers[0]].Row
	for _, s := range servers[1:] {
		if st.DC.Servers[s].Row != row {
			t.Fatalf("baseline spread VMs across rows %d and %d; expected packing", row, st.DC.Servers[s].Row)
		}
	}
}

func TestBaselineRouteLeastQueue(t *testing.T) {
	st, _ := newComponentState(t)
	vms := setupEndpoint(t, st, 3)
	// Pre-load one instance.
	vms[0].Instance.EnqueueBulk(1e6, 2.5e5)
	b := NewBaseline()
	before := make([]float64, len(vms))
	for i, vm := range vms {
		before[i] = vm.Instance.TickEnqueued()
	}
	b.Route(st, st.Work.Endpoints[0], 3e5, 7.5e4)
	if d0 := vms[0].Instance.TickEnqueued() - before[0]; d0 >= vms[1].Instance.TickEnqueued()-before[1] {
		t.Error("baseline routing must favor the least-loaded instance")
	}
}

func TestBaselineCapRowUniform(t *testing.T) {
	st, _ := newComponentState(t)
	b := NewBaseline()
	b.CapRow(st, 0, 300000, 200000)
	var capped int
	for _, srv := range st.DC.Rows[0].Servers {
		if st.ServerFreqCap[srv.ID] < 1 {
			capped++
		}
	}
	if capped != len(st.DC.Rows[0].Servers) {
		t.Errorf("uniform cap hit %d of %d servers", capped, len(st.DC.Rows[0].Servers))
	}
	// Other row untouched.
	for _, srv := range st.DC.Rows[1].Servers {
		if st.ServerFreqCap[srv.ID] < 1 {
			t.Fatal("cap leaked into another row")
		}
	}
	// Compounding: a second call caps deeper.
	first := st.ServerFreqCap[st.DC.Rows[0].Servers[0].ID]
	b.CapRow(st, 0, 300000, 200000)
	if st.ServerFreqCap[st.DC.Rows[0].Servers[0].ID] >= first {
		t.Error("capping must compound while the violation persists")
	}
}

// --- TAPAS selective capping --------------------------------------------------

func TestSelectiveCapPrefersIaaS(t *testing.T) {
	st, prof := newComponentState(t)
	pol := NewFull()
	pol.prof = prof
	// One IaaS and one SaaS VM in row 0.
	var iaasID, saasID = -1, -1
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.IaaS && iaasID == -1 {
			if err := st.Place(i, 0); err != nil {
				t.Fatal(err)
			}
			iaasID = 0
		}
		if vm.Spec.Kind == trace.SaaS && saasID == -1 {
			if err := st.Place(i, 1); err != nil {
				t.Fatal(err)
			}
			saasID = 1
		}
		if iaasID != -1 && saasID != -1 {
			break
		}
	}
	st.ServerPowerW[0] = 5000
	st.ServerPowerW[1] = 5000
	pol.selectiveCap(st, []int{0, 1}, 1000)
	if st.ServerFreqCap[0] >= 1 {
		t.Error("IaaS server must be capped first")
	}
	if st.ServerFreqCap[1] < 1 {
		t.Error("SaaS server must be spared while IaaS headroom remains")
	}
	// Impossible shed falls through to SaaS too.
	pol.selectiveCap(st, []int{0, 1}, 1e9)
	if st.ServerFreqCap[1] >= 1 {
		t.Error("overwhelming shed target must reach SaaS servers")
	}
}
