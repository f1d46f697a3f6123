package sim

import (
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// Compile-time checks that the SLO policy family plugs into every optional
// engine surface it is designed for.
var (
	_ Policy           = (*core.SLO)(nil)
	_ RequestAdmitter  = (*core.SLO)(nil)
	_ RequestScheduler = (*core.SLO)(nil)
	_ SLOTunable       = (*core.SLO)(nil)
	_ RequestRouter    = (*core.SLO)(nil)
)

// overloadedRequests scales the synthetic log until the small fleet cannot
// serve everything inside the SLO, so deadline-aware admission has load to
// shed.
func overloadedRequests(t *testing.T, factor float64) []llm.Request {
	t.Helper()
	chain := transform.Chain{&transform.DemandScale{SaaS: factor}}
	scaled, err := chain.ApplyRequests(syntheticRequests(400, 2, 7*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	return scaled
}

// TestSLOAdmissionAccounting is the shed bookkeeping contract: every routed
// request is either admitted or shed (admitted + shed = arrived), completions
// never exceed admissions, and under heavy overload the policy actually
// sheds.
func TestSLOAdmissionAccounting(t *testing.T) {
	reqs := overloadedRequests(t, 8)
	cs, err := Compile(requestScenario(reqs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.Run(core.NewSLO(false))
	if err != nil {
		t.Fatal(err)
	}
	admitted := res.RequestsAdmitted(AllEndpoints)
	shed := res.RequestsShed(AllEndpoints)
	if admitted+shed != len(reqs) {
		t.Errorf("admitted %d + shed %d = %d, want every arrived request (%d)",
			admitted, shed, admitted+shed, len(reqs))
	}
	if shed == 0 {
		t.Error("8x overload shed nothing; admission control inactive")
	}
	if done := res.RequestsCompleted(AllEndpoints); done > admitted {
		t.Errorf("completed %d exceeds admitted %d", done, admitted)
	}
	for ep := 0; ep < res.RequestEndpoints(); ep++ {
		if res.RequestsShed(ep) < 0 || res.RequestsAdmitted(ep) < 0 {
			t.Fatalf("endpoint %d: negative accounting", ep)
		}
	}

	// Policies without admission control shed nothing and admit everything.
	base, err := cs.Run(core.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if got := base.RequestsShed(AllEndpoints); got != 0 {
		t.Errorf("baseline shed %d requests, want 0", got)
	}
	if got := base.RequestsAdmitted(AllEndpoints); got != len(reqs) {
		t.Errorf("baseline admitted %d, want all %d", got, len(reqs))
	}
}

// TestSLOAdmissionBeatsTAPASUnderOverload is the tentpole claim: at heavy
// overload, shedding doomed requests keeps the latency of what remains
// inside the SLO, so the deadline-aware policy's attainment (over
// completions) beats TAPAS's.
func TestSLOAdmissionBeatsTAPASUnderOverload(t *testing.T) {
	cs, err := Compile(requestScenario(overloadedRequests(t, 8)))
	if err != nil {
		t.Fatal(err)
	}
	tapas, err := cs.Run(core.NewFull())
	if err != nil {
		t.Fatal(err)
	}
	slo, err := cs.Run(core.NewSLO(false))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := slo.SLOAttainment(AllEndpoints), tapas.SLOAttainment(AllEndpoints); !(a > b) {
		t.Errorf("SLO-Admit attainment %.4f does not beat TAPAS %.4f at 8x overload", a, b)
	}
}

// TestSLOSchedCacheKey pins the keying contract for the SLO-scheduling
// parameters: SLOSched is runtime-only, so the zero value, each parameter and
// each distinct value key identically, and a CompileCache serves all of them
// from one compilation that adopts the caller's parameters.
func TestSLOSchedCacheKey(t *testing.T) {
	reqs := syntheticRequests(50, 2, 5*time.Minute)
	cache := NewCompileCache(0)
	var k0 CacheKey
	for i, ss := range []SLOSched{{}, {AffinityWeight: 0.25}, {AdmissionSlack: 1.5}, {AffinityWeight: 0.5, AdmissionSlack: 2}} {
		sc := requestScenario(reqs)
		sc.SLOSched = ss
		k, err := ScenarioKey(sc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			k0 = k
		} else if k != k0 {
			t.Errorf("SLOSched %+v changed the scenario key", ss)
		}
		cs, err := cache.Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Scenario.SLOSched != ss {
			t.Errorf("cached compilation carries SLOSched %+v, want %+v", cs.Scenario.SLOSched, ss)
		}
	}
	if n := cache.Compiles(); n != 1 {
		t.Errorf("SLOSched variants took %d compiles, want 1", n)
	}
}

// TestSLOTuningChangesBehavior pins the TuneSLO plumbing end to end: a
// generous admission slack must shed no more than a strict one on the same
// compiled log.
func TestSLOTuningChangesBehavior(t *testing.T) {
	reqs := overloadedRequests(t, 4)
	shedAt := func(slack float64) int {
		sc := requestScenario(reqs)
		sc.SLOSched.AdmissionSlack = slack
		res, err := Run(sc, core.NewSLO(false))
		if err != nil {
			t.Fatal(err)
		}
		return res.RequestsShed(AllEndpoints)
	}
	strict, generous := shedAt(0.5), shedAt(100)
	if strict == 0 {
		t.Error("slack 0.5 at 4x overload shed nothing")
	}
	if generous > strict {
		t.Errorf("slack 100 shed %d requests, more than slack 0.5's %d", generous, strict)
	}
}
