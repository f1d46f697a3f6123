package transform_test

// Metamorphic tests: instead of pinning transform outputs to goldens, these
// pin relations every transform must satisfy — identity parameters are exact
// no-ops all the way through the simulator, the same chain and seed always
// produce the same bytes, and scaling demand scales demand. Relations hold
// for every trace, so they keep holding as the generator and engine evolve.

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// quickScenario is the 80-server 20-minute smoke setup.
func quickScenario(t *testing.T) (sim.Scenario, *trace.Workload) {
	t.Helper()
	sc := sim.SmallScenario()
	sc.Duration = 20 * time.Minute
	wl, err := sim.GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sc, wl
}

// reportString folds every scalar metric of a run into one full-precision
// string, so "byte-identical report" covers the whole result surface.
func reportString(r *sim.Result) string {
	return fmt.Sprintf("policy=%s ticks=%d maxT=%v p99T=%v peakW=%v p99W=%v throttle=%v powercap=%v svc=%v slo=%v qual=%v iaas=%v rejects=%d",
		r.Policy, r.Ticks, r.MaxTemp(), r.PercentileMaxTemp(99), r.PeakPower(),
		r.PercentilePeakPower(99), r.ThrottleFrac(), r.PowerCapFrac(),
		r.ServiceRate(), r.SLOViolationRate(), r.AvgQuality(), r.IaaSPerfLoss(), r.PlacementRejects)
}

func runReplay(t *testing.T, sc sim.Scenario, wl *trace.Workload, chain transform.Chain) string {
	t.Helper()
	replay := sc
	replay.Trace = wl
	replay.TraceTransforms = chain
	res, err := sim.Run(replay, core.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	return reportString(res)
}

// TestIdentityLaws: transforms at their identity parameters — demand_scale
// 1.0, time_warp 1.0, the empty endpoint_filter — produce reports
// byte-identical to replaying the untouched trace through sim.Compile.
func TestIdentityLaws(t *testing.T) {
	sc, wl := quickScenario(t)
	want := runReplay(t, sc, wl, nil)

	chains := map[string]transform.Chain{
		"demand_scale(1.0)": {&transform.DemandScale{Factor: 1}},
		"time_warp(1.0)":    {&transform.TimeWarp{Factor: 1}},
		"empty filter":      {&transform.EndpointFilter{}},
		"stacked identities": {
			&transform.DemandScale{Factor: 1, Seed: 99},
			&transform.TimeWarp{Factor: 1},
			&transform.EndpointFilter{},
		},
	}
	for name, chain := range chains {
		t.Run(name, func(t *testing.T) {
			if got := runReplay(t, sc, wl, chain); got != want {
				t.Errorf("identity chain changed the report:\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestCompositionDeterminism: the same chain and seed produce byte-identical
// workloads however many times they are applied, and the simulated report is
// stable across repeated compiles.
func TestCompositionDeterminism(t *testing.T) {
	sc, wl := quickScenario(t)
	chain := transform.Chain{
		&transform.TimeWarp{Factor: 0.75},
		&transform.DemandScale{Factor: 1.5, Seed: 3},
		&transform.Jitter{Sigma: transform.Dur(2 * time.Minute), Seed: 5},
	}
	first, err := chain.Apply(wl)
	if err != nil {
		t.Fatal(err)
	}
	second, err := chain.Apply(wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("same chain applied twice produced different workloads")
	}

	// Warping to 0.75 shrinks the recorded window below the scenario
	// duration; run at the warped window.
	short := sc
	short.Duration = time.Duration(0.75 * float64(sc.Duration))
	r1 := runReplay(t, short, wl, chain)
	r2 := runReplay(t, short, wl, chain)
	if r1 != r2 {
		t.Errorf("same chain produced different reports:\n%s\n%s", r1, r2)
	}

	// In-spec application ≡ pre-applied trace: replaying the transformed
	// workload without a chain gives the same bytes.
	pre := runReplay(t, short, first, nil)
	if pre != r1 {
		t.Errorf("pre-applied trace differs from in-scenario chain:\npre: %s\nin:  %s", pre, r1)
	}
}

// TestDemandScaleMonotonicity: demand_scale 2.0 doubles the workload's
// aggregate demand — SaaS token demand exactly, IaaS population within the
// deterministic-thinning tolerance.
func TestDemandScaleMonotonicity(t *testing.T) {
	_, wl := quickScenario(t)
	scaled, err := (transform.Chain{&transform.DemandScale{Factor: 2, Seed: 7}}).Apply(wl)
	if err != nil {
		t.Fatal(err)
	}

	sumTokens := func(w *trace.Workload) float64 {
		total := 0.0
		for m := 0; m < int(w.Config.Duration/time.Minute); m++ {
			at := time.Duration(m) * time.Minute
			for _, ep := range w.Endpoints {
				p, o := ep.DemandTokens(at, time.Minute)
				total += p + o
			}
		}
		return total
	}
	base, got := sumTokens(wl), sumTokens(scaled)
	if base <= 0 {
		t.Fatal("base trace has no SaaS demand to scale")
	}
	if ratio := got / base; math.Abs(ratio-2) > 1e-9 {
		t.Errorf("SaaS token demand ratio %v, want exactly 2 (within fp tolerance)", ratio)
	}

	iaas := func(w *trace.Workload) int {
		n := 0
		for _, vm := range w.VMs {
			if vm.Kind == trace.IaaS {
				n++
			}
		}
		return n
	}
	if got, want := iaas(scaled), 2*iaas(wl); got != want {
		// Factor 2 is integral, so replication is exact.
		t.Errorf("IaaS population %d, want exactly %d at factor 2", got, want)
	}

	// A fractional factor lands within tolerance of the expectation.
	frac, err := (transform.Chain{&transform.DemandScale{Factor: 1.5, Seed: 7}}).Apply(wl)
	if err != nil {
		t.Fatal(err)
	}
	gotN, wantN := float64(iaas(frac)), 1.5*float64(iaas(wl))
	if math.Abs(gotN-wantN) > 0.35*wantN {
		t.Errorf("IaaS population %v at factor 1.5, want ≈%v", gotN, wantN)
	}
}

// TestTimeWarpPreservesDemandVolume: compressing time halves the window but
// preserves the demand trajectory — the warped trace's demand at t equals
// the original's at t/f, so total volume scales by exactly f.
func TestTimeWarpPreservesDemandVolume(t *testing.T) {
	_, wl := quickScenario(t)
	warped, err := (transform.Chain{&transform.TimeWarp{Factor: 0.5}}).Apply(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{0, 7 * time.Minute, 9*time.Minute + 30*time.Second} {
		for i, ep := range warped.Endpoints {
			gotP, gotO := ep.DemandTokens(at, time.Minute)
			wantP, wantO := wl.Endpoints[i].DemandTokens(2*at, time.Minute)
			if gotP != wantP || gotO != wantO {
				t.Errorf("endpoint %d demand at %v = (%v,%v), original at %v = (%v,%v)",
					i, at, gotP, gotO, 2*at, wantP, wantO)
			}
		}
	}
}
