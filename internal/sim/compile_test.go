package sim

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// TestCompiledRunMatchesFreshRun pins the compiled-scenario contract: running
// from a shared compilation produces results deeply equal to compiling per
// run, and repeated runs from one compilation do not contaminate each other.
func TestCompiledRunMatchesFreshRun(t *testing.T) {
	sc := SmallScenario()
	fresh, err := Run(sc, naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cs.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := cs.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, first) {
		t.Error("compiled run differs from fresh run")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("second run from the same compilation differs from the first")
	}
}

// TestCompileFillsWorkloadWindowAndFleet: Compile and GenerateWorkload
// generate the synthetic workload over the scenario's own Duration and the
// fleet its layout provides (oversubscribed racks included), whatever the
// generator config's Duration and Servers hold.
func TestCompileFillsWorkloadWindowAndFleet(t *testing.T) {
	base := SmallScenario()
	base.Duration = 20 * time.Minute
	base.Oversubscribe = 0.25
	var first *CompiledScenario
	for _, tc := range []struct {
		name     string
		duration time.Duration
		servers  int
	}{
		{"zero", 0, 0},
		{"stale", 7 * 24 * time.Hour, 9999},
	} {
		sc := base
		sc.Workload.Duration, sc.Workload.Servers = tc.duration, tc.servers
		cs, err := Compile(sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := cs.Workload.Config; got.Duration != sc.Duration || got.Servers != len(cs.DC.Servers) {
			t.Errorf("%s: workload generated for %v on %d servers, want %v on %d",
				tc.name, got.Duration, got.Servers, sc.Duration, len(cs.DC.Servers))
		}
		gen, err := GenerateWorkload(sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(gen, cs.Workload) {
			t.Errorf("%s: GenerateWorkload differs from the compiled workload", tc.name)
		}
		if first == nil {
			first = cs
		} else if !reflect.DeepEqual(cs.Workload, first.Workload) {
			t.Errorf("%s: workload differs from the one generated with zero fields", tc.name)
		}
	}
}

// TestCompiledRunsConcurrently drives many simultaneous runs off one
// compilation; with -race this proves the shared artifacts are read-only.
func TestCompiledRunsConcurrently(t *testing.T) {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	cs, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cs.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = cs.Run(naivePolicy{})
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(want, results[w]) {
			t.Errorf("worker %d produced a different result", w)
		}
	}
}

// TestCompiledVariant verifies runtime-only variations (tick, failures and
// the climate: region and start offset), adopted through ForScenario, reuse
// the compiled artifacts yet match a fresh compile of the varied scenario.
func TestCompiledVariant(t *testing.T) {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	cs, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	base, err := cs.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"tick", func(s *Scenario) { s.Tick = 15 * time.Second }},
		{"failures", func(s *Scenario) {
			s.Failures = []FailureEvent{{Kind: PowerFailure, At: 5 * time.Minute, Duration: 10 * time.Minute}}
		}},
		{"region", func(s *Scenario) { s.Region.MeanC += 5 }},
		{"start offset", func(s *Scenario) { s.StartOffset += time.Hour }},
	} {
		varied := sc
		tc.mutate(&varied)
		fresh, err := Run(varied, naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.ForScenario(varied).Run(naivePolicy{})
		if err != nil {
			t.Fatalf("%s variant: %v", tc.name, err)
		}
		if !reflect.DeepEqual(fresh, got) {
			t.Errorf("%s variant differs from a fresh compile of the varied scenario", tc.name)
		}
		if reflect.DeepEqual(base, got) {
			t.Errorf("%s variant ran like the base scenario", tc.name)
		}
	}
	// The base compilation must be untouched by its copies.
	if !reflect.DeepEqual(cs.Scenario, sc) {
		t.Error("ForScenario mutated the base compiled scenario")
	}
}

// TestCompiledRunRejectsBadTick keeps the tick validation on the compiled
// path.
func TestCompiledRunRejectsBadTick(t *testing.T) {
	sc := SmallScenario()
	cs, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Tick = 0
	if _, err := cs.ForScenario(sc).Run(naivePolicy{}); err == nil {
		t.Fatal("expected error for zero tick")
	}
}

// TestForScenarioKeepsCompiledFields pins the runtime-only contract: a
// ForScenario copy takes only the runtime-only fields, so a scenario that
// differs in a compile-relevant field runs exactly like the compiled
// scenario instead of against artifacts compiled for other inputs.
func TestForScenarioKeepsCompiledFields(t *testing.T) {
	sc := quickScenario()
	cs, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cs.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	other, err := GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Scenario){
		"workload":          func(s *Scenario) { s.Workload.SaaSFraction = 0.25 },
		"oversubscribe":     func(s *Scenario) { s.Oversubscribe = 0.3 },
		"longer duration":   func(s *Scenario) { s.Duration *= 2 },
		"shorter duration":  func(s *Scenario) { s.Duration /= 2 },
		"trace":             func(s *Scenario) { s.Trace = other },
		"request-level log": func(s *Scenario) { s.Requests = syntheticRequests(50, 2, 5*time.Minute) },
	} {
		varied := sc
		mutate(&varied)
		cp := cs.ForScenario(varied)
		if !reflect.DeepEqual(cp.Scenario, cs.Scenario) {
			t.Errorf("%s: ForScenario adopted a compile-relevant field", name)
		}
		got, err := cp.Run(naivePolicy{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: the copy ran unlike the compiled scenario", name)
		}
	}
}

// TestScenarioFieldsAreKeyedOrAdopted lists Scenario's fields by reflection
// and requires each to be hashed by ScenarioKey or adopted by ForScenario,
// never both: a field in neither would be dropped from every reused
// compilation, and a field in both would let a run disagree with the
// artifacts its key names. A field added to Scenario fails the test until
// it is perturbed here.
func TestScenarioFieldsAreKeyedOrAdopted(t *testing.T) {
	synthetic := SmallScenario()
	replay := synthetic
	replay.Trace = smallTrace(t, 1)
	perturb := map[string]func(*Scenario){
		"Layout":          func(s *Scenario) { s.Layout.Seed++ },
		"Workload":        func(s *Scenario) { s.Workload.Seed++ },
		"Trace":           func(s *Scenario) { s.Trace = smallTrace(t, 2) },
		"TraceTransforms": func(s *Scenario) { s.TraceTransforms = transform.Chain{&transform.TimeWarp{Factor: 2}} },
		"Requests":        func(s *Scenario) { s.Requests = syntheticRequests(10, 2, time.Minute) },
		"SLOSched":        func(s *Scenario) { s.SLOSched.AffinityWeight = 0.25 },
		"PowerGov":        func(s *Scenario) { s.PowerGov.Gain = 0.5 },
		"Region":          func(s *Scenario) { s.Region.MeanC++ },
		"Duration":        func(s *Scenario) { s.Duration += time.Minute },
		"Tick":            func(s *Scenario) { s.Tick *= 2 },
		"StartOffset":     func(s *Scenario) { s.StartOffset += time.Hour },
		"Oversubscribe":   func(s *Scenario) { s.Oversubscribe = 0.2 },
		"Failures": func(s *Scenario) {
			s.Failures = []FailureEvent{{Kind: PowerFailure, At: time.Minute, Duration: time.Minute}}
		},
		"Observer": func(s *Scenario) { s.Observer = func(*cluster.State) {} },
	}
	typ := reflect.TypeOf(Scenario{})
	if len(perturb) != typ.NumField() {
		t.Errorf("%d perturbations for %d Scenario fields", len(perturb), typ.NumField())
	}
	compiled := &CompiledScenario{Scenario: synthetic}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		mutate, ok := perturb[name]
		if !ok {
			t.Errorf("Scenario.%s has no perturbation: hash it in ScenarioKey or adopt it in ForScenario, then add it here", name)
			continue
		}
		// Some fields count in one workload source only (Workload for a
		// synthetic scenario, TraceTransforms for a replay), so a field is
		// hashed when it moves the key of either.
		keyed := false
		for _, base := range []Scenario{synthetic, replay} {
			sc := base
			mutate(&sc)
			keyed = keyed || mustKey(t, sc) != mustKey(t, base)
		}
		sc := synthetic
		mutate(&sc)
		got := reflect.ValueOf(compiled.ForScenario(sc).Scenario).Field(i)
		adopted := !sameField(got, reflect.ValueOf(synthetic).Field(i))
		if keyed == adopted {
			t.Errorf("Scenario.%s: hashed by ScenarioKey %v, adopted by ForScenario %v; want exactly one", name, keyed, adopted)
		}
	}
}

// sameField compares two values of one Scenario field; funcs compare by
// code pointer, which reflect.DeepEqual does not.
func sameField(a, b reflect.Value) bool {
	if a.Kind() == reflect.Func {
		return a.Pointer() == b.Pointer()
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// TestRunRejectsScenarioShorterThanOneTick pins the zero-tick guard: a
// scenario shorter than one tick would run no tick at all and report empty
// series as a 0 °C fleet with perfect service. Run refuses it, on a fresh
// scenario and on a compilation adopting a tick longer than its duration
// (Duration is compile-relevant, Tick runtime-only); a duration of exactly
// one tick still runs that tick.
func TestRunRejectsScenarioShorterThanOneTick(t *testing.T) {
	sc := SmallScenario()
	sc.Tick = 2 * sc.Duration
	if _, err := Run(sc, naivePolicy{}); err == nil || !strings.Contains(err.Error(), "shorter than one tick") {
		t.Errorf("scenario shorter than its tick: err = %v, want a shorter-than-one-tick error", err)
	}
	cs, err := Compile(SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.ForScenario(sc).Run(naivePolicy{}); err == nil || !strings.Contains(err.Error(), "shorter than one tick") {
		t.Errorf("tick lengthened past the duration: err = %v, want a shorter-than-one-tick error", err)
	}
	sc.Tick = sc.Duration
	res, err := cs.ForScenario(sc).Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 1 || len(res.MaxTempC) != 1 {
		t.Errorf("one-tick run ran %d ticks (%d samples), want 1", res.Ticks, len(res.MaxTempC))
	}
}

// TestCompileRejectsBadWeatherWindow pins the guard in front of the weather
// series: a run builds it over [0, StartOffset+Duration], so a negative
// start offset, or one whose window end overflows, would size it negative
// and panic. StartOffset is runtime-only, so besides Compile, a cold cache
// and Run, a warm cache hit and a ForScenario copy of a good compilation
// carry it to a run without compiling; every path returns an error instead.
func TestCompileRejectsBadWeatherWindow(t *testing.T) {
	good := SmallScenario()
	good.Duration = 20 * time.Minute
	warm := NewCompileCache(0)
	cs, err := warm.Compile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		offset time.Duration
		ok     bool
	}{
		{"negative offset", -5 * time.Hour, false},
		{"overflowing window end", time.Duration(1<<63 - 1), false},
		{"positive offset", 10 * time.Minute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := good
			sc.StartOffset = tc.offset
			_, compileErr := Compile(sc)
			_, coldErr := NewCompileCache(0).Compile(sc)
			_, warmErr := warm.Compile(sc)
			_, runErr := Run(sc, naivePolicy{})
			_, adoptErr := cs.ForScenario(sc).Run(naivePolicy{})
			for _, e := range []struct {
				path string
				err  error
			}{
				{"Compile", compileErr},
				{"cold cache", coldErr},
				{"warm cache", warmErr},
				{"Run", runErr},
				{"ForScenario", adoptErr},
			} {
				if tc.ok && e.err != nil {
					t.Errorf("%s, offset %v: %v", e.path, tc.offset, e.err)
				}
				if !tc.ok && (e.err == nil || !strings.Contains(e.err.Error(), "start offset")) {
					t.Errorf("%s, offset %v: err = %v, want a start-offset error", e.path, tc.offset, e.err)
				}
			}
		})
	}
}

// TestCompileRejectsBadOversubscription pins the compile path's guard on
// the oversubscription ratio: layout.AddRacks converts ratio × racks per row
// to a rack count, so NaN or +Inf would add an arbitrary number of racks (at
// NaN, none) and a negative ratio silently means none. Compile, a cold and a
// warm cache, Run and GenerateWorkload all refuse them; 0 and a positive
// ratio still compile.
func TestCompileRejectsBadOversubscription(t *testing.T) {
	good := SmallScenario()
	good.Duration = 20 * time.Minute
	warm := NewCompileCache(0)
	if _, err := warm.Compile(good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ratio float64
		ok    bool
	}{
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-0.1, false},
		{0, true},
		{0.2, true},
	} {
		sc := good
		sc.Oversubscribe = tc.ratio
		_, compileErr := Compile(sc)
		_, coldErr := NewCompileCache(0).Compile(sc)
		_, warmErr := warm.Compile(sc)
		_, runErr := Run(sc, naivePolicy{})
		_, genErr := GenerateWorkload(sc)
		for _, e := range []struct {
			path string
			err  error
		}{
			{"Compile", compileErr},
			{"cold cache", coldErr},
			{"warm cache", warmErr},
			{"Run", runErr},
			{"GenerateWorkload", genErr},
		} {
			if tc.ok && e.err != nil {
				t.Errorf("%s, ratio %v: %v", e.path, tc.ratio, e.err)
			}
			if !tc.ok && (e.err == nil || !strings.Contains(e.err.Error(), "oversubscription ratio")) {
				t.Errorf("%s, ratio %v: err = %v, want an oversubscription error", e.path, tc.ratio, e.err)
			}
		}
	}
}

// TestLayoutsShareServingProfiles pins one serving profile per GPU generation
// per process: in one-tick runs on two layouts of one generation (two seeds
// of the small preset) and on a mixed A100/H100 layout, every server reads
// the shared *llm.Profile of its generation: no layout or run builds a copy
// of its own.
func TestLayoutsShareServingProfiles(t *testing.T) {
	a, b := SmallScenario(), SmallScenario()
	a.Layout.Seed, b.Layout.Seed = 1, 2
	mixed := SmallScenario()
	mixed.Layout.Aisles, mixed.Layout.MixGPU, mixed.Layout.MixFraction = 2, layout.H100, 0.5
	var dcs []*layout.Datacenter
	seen := map[layout.GPUModel]int{}
	for _, sc := range []Scenario{a, b, mixed} {
		sc.Duration = sc.Tick
		sc.Observer = func(st *cluster.State) {
			dcs = append(dcs, st.DC)
			for i, s := range st.DC.Servers {
				m := s.GPU.Model
				seen[m]++
				if got, want := st.ProfileFor(i), llm.DefaultProfile(m); got != want {
					t.Fatalf("layout %d, server %d (%v): profile %p, want the shared %v profile %p", len(dcs), i, m, got, m, want)
				}
			}
		}
		cs, err := Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Run(naivePolicy{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(dcs) != 3 || dcs[0] == dcs[1] {
		t.Fatalf("want one tick on each of three datacenters, got %d ticks", len(dcs))
	}
	if seen[layout.A100] == 0 || seen[layout.H100] == 0 {
		t.Fatalf("servers per generation %v, want both generations", seen)
	}
}
