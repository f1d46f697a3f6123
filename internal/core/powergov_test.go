package core

import (
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
)

// TestPowerGovCapsOverBudgetEndpoint pins the closed loop end to end on
// component state: an endpoint drawing near TDP against a 50% budget is
// walked under a frequency cap, and once the draw falls below budget the
// caps recover monotonically to uncapped — gradual in both directions.
func TestPowerGovCapsOverBudgetEndpoint(t *testing.T) {
	st, _ := newComponentState(t)
	pol := NewPowerGov(false)
	if err := pol.Init(st); err != nil {
		t.Fatal(err)
	}
	vms := setupEndpoint(t, st, 4)
	pol.TunePowerGov(0.5, 0.35)
	setDraw := func(powerW, gpuFrac float64) {
		for _, vm := range vms {
			st.ServerPowerW[vm.Server] = powerW
			fr := st.GPUFracs(vm.Server)
			for g := range fr {
				fr[g] = gpuFrac
			}
		}
	}
	// Near-TDP draw, twice the budget: the governor must engage.
	setDraw(6400, 1)
	for i := 0; i < 60; i++ {
		pol.Configure(st)
	}
	for _, vm := range vms {
		if cap := st.ServerFreqCap[vm.Server]; cap >= 1 {
			t.Fatalf("server %d uncapped (%.3f) after 60 over-budget ticks", vm.Server, cap)
		}
		if cap := st.ServerFreqCap[vm.Server]; cap < minFreqCap {
			t.Fatalf("server %d capped below the policy floor: %.3f", vm.Server, cap)
		}
	}
	// Idle draw, well under budget: caps must release gradually, never
	// overshooting downward, and reach uncapped.
	setDraw(1000, 0.1)
	prev := st.ServerFreqCap[vms[0].Server]
	for i := 0; i < 300; i++ {
		pol.Configure(st)
		cur := st.ServerFreqCap[vms[0].Server]
		if cur < prev-1e-12 {
			t.Fatalf("tick %d: cap regressed %.6f → %.6f during recovery", i, prev, cur)
		}
		prev = cur
	}
	if prev < 0.999 {
		t.Errorf("cap recovered only to %.4f, want ~1", prev)
	}
}

// TestPowerGovOnlyTouchesOccupiedServers pins that the governor tunes only
// the servers hosting its endpoints' instances: it must never move the
// frequency cap of a server without an instance.
func TestPowerGovOnlyTouchesOccupiedServers(t *testing.T) {
	st, _ := newComponentState(t)
	pol := NewPowerGov(false)
	if err := pol.Init(st); err != nil {
		t.Fatal(err)
	}
	vms := setupEndpoint(t, st, 2)
	occupied := map[int]bool{}
	for _, vm := range vms {
		occupied[vm.Server] = true
		st.ServerPowerW[vm.Server] = 6400
		fr := st.GPUFracs(vm.Server)
		for g := range fr {
			fr[g] = 1
		}
	}
	pol.TunePowerGov(0.3, 0.5)
	for i := 0; i < 20; i++ {
		pol.Configure(st)
	}
	for id, cap := range st.ServerFreqCap {
		if !occupied[id] && cap != 1 {
			t.Errorf("unoccupied server %d cap moved to %.3f", id, cap)
		}
	}
}

// TestEnergyRoutingPrefersEfficientGeneration pins the energy-aware router
// on a heterogeneous pair: with equal (idle) backlogs the request goes to
// the generation with lower estimated energy per token, and a large enough
// backlog on the efficient instance flips the decision — energy preference
// never starves latency.
func TestEnergyRoutingPrefersEfficientGeneration(t *testing.T) {
	// Two aisles, the second built from H100 servers: the layout's index,
	// ProfileFor and ServerGPUSpec agree with the instances placed there.
	cfg := layout.SmallConfig()
	cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 2, layout.H100, 0.5
	st, _ := newComponentStateOn(t, cfg)
	pol := NewPowerGov(true)
	if err := pol.Init(st); err != nil {
		t.Fatal(err)
	}
	a100, h100 := 0, st.DC.Aisles[1].Servers()[0].ID
	if st.ServerGPUSpec(a100).Model != layout.A100 || st.ServerGPUSpec(h100).Model != layout.H100 ||
		st.ProfileFor(h100).Spec.Model != layout.H100 {
		t.Fatalf("servers %d and %d are not an A100/H100 pair", a100, h100)
	}
	vms := placeEndpoint(t, st, a100, h100)
	j0, j1 := energyPerTokenEst(vms[0]), energyPerTokenEst(vms[1])
	if j0 == j1 {
		t.Fatalf("generations estimate identical energy per token (%.3f J); test fleet not heterogeneous", j0)
	}
	cheap, costly := 0, 1
	if j0 > j1 {
		cheap, costly = 1, 0
	}
	req := llm.Request{PromptTokens: 500, OutputTokens: 125}
	idx, ok := pol.RouteRequest(st, vms, req)
	if !ok || idx != cheap {
		t.Errorf("idle instances: routed to %d, want efficient candidate %d (%.3f vs %.3f J/token)",
			idx, cheap, energyPerTokenEst(vms[cheap]), energyPerTokenEst(vms[costly]))
	}
	// Pile an hour of work onto the efficient instance: backlog must win.
	vms[cheap].Instance.EnqueueBulk(4e6, 1e6)
	idx, ok = pol.RouteRequest(st, vms, req)
	if !ok || idx != costly {
		t.Errorf("saturated efficient instance: routed to %d, want %d", idx, costly)
	}
}

// TestPowerGovEndpointMonitorIgnoresEmptyEndpoints pins that endpoints with
// no placed instances neither panic nor perturb controller state for the
// active ones.
func TestPowerGovEndpointMonitorIgnoresEmptyEndpoints(t *testing.T) {
	st, _ := newComponentState(t)
	pol := NewPowerGov(false)
	if err := pol.Init(st); err != nil {
		t.Fatal(err)
	}
	// No placements at all: govern must be a no-op.
	pol.Configure(st)
	for id, cap := range st.ServerFreqCap {
		if cap != 1 {
			t.Fatalf("server %d capped on an empty cluster (%.3f)", id, cap)
		}
	}
}
