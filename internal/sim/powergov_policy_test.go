package sim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
)

// Compile-time checks that the power-governing policy family plugs into every
// optional engine surface it is designed for.
var (
	_ Policy          = (*core.PowerGov)(nil)
	_ RequestRouter   = (*core.PowerGov)(nil)
	_ PowerGovTunable = (*core.PowerGov)(nil)
)

// TestPowerGovCacheKey pins the keying contract for the governor knobs:
// PowerGov is runtime-only, so the zero value, each knob and each distinct
// value key identically, and a CompileCache serves all of them from one
// compilation that adopts the caller's knobs.
func TestPowerGovCacheKey(t *testing.T) {
	reqs := syntheticRequests(50, 2, 5*time.Minute)
	cache := NewCompileCache(0)
	var k0 CacheKey
	for i, pg := range []PowerGov{{}, {BudgetFrac: 0.7}, {Gain: 0.5}, {BudgetFrac: 0.5, Gain: 0.25}} {
		sc := requestScenario(reqs)
		sc.PowerGov = pg
		k, err := ScenarioKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			k0 = k
		} else if k != k0 {
			t.Errorf("PowerGov %+v changed the scenario key", pg)
		}
		cs, err := cache.Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Scenario.PowerGov != pg {
			t.Errorf("cached compilation carries PowerGov %+v, want %+v", cs.Scenario.PowerGov, pg)
		}
	}
	if n := cache.Compiles(); n != 1 {
		t.Errorf("PowerGov variants took %d compiles, want 1", n)
	}
}

// TestForScenarioAdoptsPolicyParams pins that policy parameters are run
// options: a compilation adopting other SLOSched and PowerGov values through
// ForScenario (a cache hit, or a grid point sharing a compilation) reports
// exactly what a cold compile with those values does.
func TestForScenarioAdoptsPolicyParams(t *testing.T) {
	base := requestScenario(overloadedRequests(t, 4))
	cs, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	tuned := base
	tuned.SLOSched = SLOSched{AffinityWeight: 0.25, AdmissionSlack: 0.5}
	tuned.PowerGov = PowerGov{BudgetFrac: 0.3, Gain: 0.5}
	for _, pol := range []struct {
		name string
		new  func() Policy
	}{
		{"slo", func() Policy { return core.NewSLO(false) }},
		{"powergov", func() Policy { return core.NewPowerGov(false) }},
	} {
		cold, err := Run(tuned, pol.new())
		if err != nil {
			t.Fatal(err)
		}
		adopted, err := cs.ForScenario(tuned).Run(pol.new())
		if err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		if !reflect.DeepEqual(cold, adopted) {
			t.Errorf("%s: adopted policy parameters differ from a cold compile with them", pol.name)
		}
		defaults, err := cs.Run(pol.new())
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(cold, defaults) {
			t.Errorf("%s: the tuned parameters did not change the run", pol.name)
		}
	}
}

// TestPowerGovTuningChangesBehavior pins the TunePowerGov plumbing end to
// end: a tight budget must put servers under an applied frequency cap for
// more server-ticks than a budget at the full TDP envelope, on the same
// request log.
func TestPowerGovTuningChangesBehavior(t *testing.T) {
	reqs := overloadedRequests(t, 4)
	capTicksAt := func(budgetFrac float64) int {
		sc := requestScenario(reqs)
		sc.PowerGov.BudgetFrac = budgetFrac
		res, err := Run(sc, core.NewPowerGov(false))
		if err != nil {
			t.Fatal(err)
		}
		return res.FreqCapSrvTicks
	}
	tight, generous := capTicksAt(0.3), capTicksAt(1)
	if tight == 0 {
		t.Error("budget at 30% of TDP applied no frequency caps at 4x overload")
	}
	if tight <= generous {
		t.Errorf("budget 0.3 capped %d server-ticks, not more than budget 1.0's %d", tight, generous)
	}
}

// TestPowerGovEnergyAccounting pins the per-endpoint energy integration: a
// run that serves tokens reports positive, finite energy per token for every
// active endpoint and in aggregate.
func TestPowerGovEnergyAccounting(t *testing.T) {
	reqs := overloadedRequests(t, 2)
	res, err := Run(requestScenario(reqs), core.NewPowerGov(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestsCompleted(AllEndpoints) == 0 {
		t.Fatal("request mode inactive: no completions to account energy against")
	}
	j := res.EnergyPerTokenJ(AllEndpoints)
	if !(j > 0) || math.IsInf(j, 0) {
		t.Errorf("aggregate energy per token = %v, want positive and finite", j)
	}
	for ep := range res.EndpointEnergyJ {
		if res.EndpointEnergyJ[ep] <= 0 {
			t.Errorf("endpoint %d integrated %.1f J, want positive", ep, res.EndpointEnergyJ[ep])
		}
	}
}
