// Micro-benchmarks of the hot paths no benchmark/ workload isolates
// (placement, routing, instance stepping, offline profiling, regression
// fitting, the iteration-level engine), plus the 10x fleet-day that serves
// as the -cpuprofile entry point for fleet-scale runs. End-to-end
// numbers come from benchmark/ (see benchmark/README.md); per-figure timing
// comes from `tapas-bench -run <id>`.
package tapas_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

func benchState(b *testing.B) *cluster.State {
	b.Helper()
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: time.Hour, Endpoints: 3, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cluster.NewState(dc, w)
}

// BenchmarkTAPASPlacement times one TAPAS placement and its binding. Each
// iteration places the next VM of the workload, so every placement sees the
// row the previous one changed and, with per-customer and per-endpoint
// peaks seeded, mostly a different load estimate. The cluster is rebuilt
// outside the timer when it fills.
func BenchmarkTAPASPlacement(b *testing.B) {
	var st *cluster.State
	var pol *core.TAPAS
	next := 0
	reset := func() {
		st = benchState(b)
		for _, vm := range st.VMs {
			st.ObserveCustomerLoad(vm.Spec.Customer, 0.3+0.1*float64(vm.Spec.Customer%7))
		}
		for ep := range st.Work.Endpoints {
			st.ObserveEndpointDemand(ep, 500*float64(ep+1))
		}
		pol = core.NewFull()
		if err := pol.Init(st); err != nil {
			b.Fatal(err)
		}
		next = 0
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st.NumFree() == 0 || next == len(st.VMs) {
			b.StopTimer()
			reset()
			b.StartTimer()
		}
		srv, ok := pol.Place(st, st.VMs[next])
		if !ok {
			b.Fatal("placement failed with free servers left")
		}
		if err := st.Place(next, srv); err != nil {
			b.Fatal(err)
		}
		next++
	}
}

func BenchmarkTAPASRouting(b *testing.B) {
	st := benchState(b)
	pol := core.NewFull()
	if err := pol.Init(st); err != nil {
		b.Fatal(err)
	}
	placed := 0
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS && vm.Spec.Endpoint == 0 && placed < 20 {
			if err := st.Place(i, placed); err != nil {
				b.Fatal(err)
			}
			placed++
		}
	}
	st.Tick = time.Minute
	ep := st.Work.Endpoints[0]
	b.ReportAllocs() // steady-state routing must stay at 0 allocs/op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.Route(st, ep, 1e6, 2.5e5)
	}
}

func BenchmarkInstanceStep(b *testing.B) {
	spec := layout.Spec(layout.A100)
	w := llm.DefaultWorkload()
	in := llm.NewInstance(spec, llm.DefaultConfig(), w, llm.ComputeSLOs(spec, llm.DefaultConfig(), w))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.EnqueueBulk(1024, 256)
		in.Step(time.Minute)
	}
}

// BenchmarkOfflineProfiling runs the offline profiling phase on the small
// preset (80 servers) and on the 5x fleet (5,200 servers), the layout the
// fleet-day workload profiles in its set-up.
func BenchmarkOfflineProfiling(b *testing.B) {
	fleet := layout.DefaultConfig()
	fleet.FleetScale = 5
	for _, bc := range []struct {
		name string
		cfg  layout.Config
	}{{"small", layout.SmallConfig()}, {"5x", fleet}} {
		b.Run(bc.name, func(b *testing.B) {
			dc, err := layout.New(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildProfiles(dc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPiecewiseSurfaceFit(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	n := 2000
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 40
		ys[i] = rng.Float64()
		zs[i] = 18 + 0.5*xs[i] + 2*ys[i] + rng.NormFloat64()*0.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.FitSurface(xs, ys, zs, []float64{15, 25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineSimHour(b *testing.B) {
	spec := layout.Spec(layout.A100)
	w := llm.DefaultWorkload()
	slos := llm.ComputeSLOs(spec, llm.DefaultConfig(), w)
	rng := rand.New(rand.NewPCG(3, 4))
	reqs := make([]llm.Request, 500)
	at := time.Duration(0)
	for i := range reqs {
		reqs[i] = llm.Request{
			ID: int64(i), Customer: rng.IntN(100),
			PromptTokens: 512 + rng.IntN(1024), OutputTokens: 64 + rng.IntN(256),
			Arrival: at,
		}
		at += time.Duration(rng.Float64() * float64(time.Second))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := llm.NewEngineSim(spec, llm.DefaultConfig())
		e.Run(reqs, time.Hour, slos)
	}
}

// BenchmarkHyperscaleDaySerial provisions the paper's fleet at 10x aisles
// (~10k servers) and runs one simulated day under full TAPAS on the serial
// tick kernel: the initial fill, a day of VM churn and 1,440 ticks over
// every server, which lead its profile since placement became row-indexed.
// Profile fleet-scale runs with
//
//	go test -run '^$' -bench HyperscaleDaySerial -benchtime 1x -cpuprofile cpu.out .
func BenchmarkHyperscaleDaySerial(b *testing.B) {
	sc := sim.DefaultScenario()
	sc.Layout.FleetScale = 10
	sc.Duration = 24 * time.Hour
	dc, err := layout.New(sc.Layout)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the memoized offline profiles for the 10x layout so the timed
	// runs (and their profile) leave out the one-time profile fit.
	if _, err := core.ProfilesFor(dc); err != nil {
		b.Fatal(err)
	}
	cs, err := sim.Compile(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Run(core.NewFull()); err != nil {
			b.Fatal(err)
		}
	}
}
