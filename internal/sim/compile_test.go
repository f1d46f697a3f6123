package sim

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestCompiledRunsConcurrently drives many simultaneous runs off one
// compilation; with -race this proves the shared artifacts are read-only.
func TestCompiledRunsConcurrently(t *testing.T) {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	sc.Workload.Duration = sc.Duration
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
// the climate: region and start offset) reuse the compiled artifacts yet
// match a fresh compile of the varied scenario.
func TestCompiledVariant(t *testing.T) {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	sc.Workload.Duration = sc.Duration
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
		got, err := cs.Variant(tc.mutate).Run(naivePolicy{})
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
	// The base compilation must be untouched by variants.
	if !reflect.DeepEqual(cs.Scenario, sc) {
		t.Error("Variant mutated the base compiled scenario")
	}
}

// TestCompiledRunRejectsBadTick keeps the tick validation on the compiled
// path.
func TestCompiledRunRejectsBadTick(t *testing.T) {
	cs, err := Compile(SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Variant(func(s *Scenario) { s.Tick = 0 }).Run(naivePolicy{}); err == nil {
		t.Fatal("expected error for zero tick")
	}
}

// TestCompiledRunRejectsStaleArtifacts pins the runtime-only contract: a
// variant that changes a compile-relevant field must fail loudly instead of
// simulating against artifacts compiled for different inputs.
func TestCompiledRunRejectsStaleArtifacts(t *testing.T) {
	cs, err := Compile(SmallScenario())
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"workload", func(s *Scenario) { s.Workload.SaaSFraction = 0.25 }},
		{"oversubscribe", func(s *Scenario) { s.Oversubscribe = 0.3 }},
		{"longer duration", func(s *Scenario) { s.Duration *= 2 }},
	}
	for _, tc := range bad {
		if _, err := cs.Variant(tc.mutate).Run(naivePolicy{}); err == nil {
			t.Errorf("%s variant must be rejected", tc.name)
		}
	}
	// Shortening the duration stays within the compiled window and is fine.
	short := cs.Variant(func(s *Scenario) {
		s.Duration = 20 * time.Minute
	})
	if _, err := short.Run(naivePolicy{}); err != nil {
		t.Errorf("shortened-duration variant must run: %v", err)
	}
}

// TestRunRejectsScenarioShorterThanOneTick pins the zero-tick guard: a
// scenario shorter than one tick would run no tick at all and report empty
// series as a 0 °C fleet with perfect service. Run refuses it, on a fresh
// scenario and on a variant that shortens the duration below the tick; a
// duration of exactly one tick still runs that tick.
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
	short := cs.Variant(func(s *Scenario) { s.Duration = s.Tick / 2 })
	if _, err := short.Run(naivePolicy{}); err == nil || !strings.Contains(err.Error(), "shorter than one tick") {
		t.Errorf("variant shortened below one tick: err = %v, want a shorter-than-one-tick error", err)
	}
	one := cs.Variant(func(s *Scenario) { s.Duration = s.Tick })
	res, err := one.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks != 1 || len(res.MaxTempC) != 1 {
		t.Errorf("one-tick variant ran %d ticks (%d samples), want 1", res.Ticks, len(res.MaxTempC))
	}
}

// TestCompileRejectsBadWeatherWindow pins the guard in front of the weather
// series: a run builds it over [0, StartOffset+Duration], so a negative
// start offset, or one whose window end overflows, would size it negative
// and panic. StartOffset is runtime-only, so besides Compile, a cold cache
// and Run, a warm cache hit and a Variant of a good compilation carry it to
// a run without compiling; every path returns an error instead.
func TestCompileRejectsBadWeatherWindow(t *testing.T) {
	good := SmallScenario()
	good.Duration = 20 * time.Minute
	good.Workload.Duration = good.Duration
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
			_, variantErr := cs.Variant(func(s *Scenario) { s.StartOffset = tc.offset }).Run(naivePolicy{})
			for _, e := range []struct {
				path string
				err  error
			}{
				{"Compile", compileErr},
				{"cold cache", coldErr},
				{"warm cache", warmErr},
				{"Run", runErr},
				{"Variant", variantErr},
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
