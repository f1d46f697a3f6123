package sim

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// quickScenario is a small, cheap-to-compile scenario for cache tests.
func quickScenario() Scenario {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	return sc
}

// TestCompileCacheHitMatchesCold is the cache's core determinism contract:
// a hit's run results are deeply equal to a cold sim.Compile's, so reports
// built from either are byte-identical. Both carry the scenario's key.
func TestCompileCacheHitMatchesCold(t *testing.T) {
	sc := quickScenario()
	cold, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	key := mustKey(t, sc)
	if cold.Key() != key {
		t.Errorf("Compile stamped key %v, want ScenarioKey %v", cold.Key(), key)
	}
	want, err := cold.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}

	cache := NewCompileCache(0)
	for i := 0; i < 2; i++ { // i=0 misses and fills, i=1 hits
		cs, err := cache.Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cs.Run(naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("compile %d: cached run differs from cold run", i)
		}
		if cs.Key() != key {
			t.Errorf("compile %d: key %v, want %v", i, cs.Key(), key)
		}
	}
	if n := cache.Compiles(); n != 1 {
		t.Errorf("cache performed %d compiles, want 1", n)
	}
	st := cache.Stats()
	if st.Scenarios.Hits != 1 || st.Scenarios.Misses != 1 {
		t.Errorf("scenario level hits=%d misses=%d, want 1/1", st.Scenarios.Hits, st.Scenarios.Misses)
	}
}

// TestCompileCacheServesRuntimeVariants proves a hit adopts the caller's
// runtime-only fields: a tick- and failure-varied scenario is served from the
// cache yet runs exactly like a fresh compile of the varied scenario.
func TestCompileCacheServesRuntimeVariants(t *testing.T) {
	base := quickScenario()
	cache := NewCompileCache(0)
	if _, err := cache.Compile(base); err != nil {
		t.Fatal(err)
	}

	varied := base
	varied.Tick = 30 * time.Second
	varied.Failures = []FailureEvent{{Kind: CoolingFailure, At: 5 * time.Minute, Duration: 5 * time.Minute}}

	cs, err := cache.Compile(varied)
	if err != nil {
		t.Fatal(err)
	}
	if n := cache.Compiles(); n != 1 {
		t.Fatalf("runtime variant recompiled (compiles=%d)", n)
	}
	got, err := cs.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(varied)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(naivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("cached runtime variant differs from a fresh compile of the varied scenario")
	}
}

// TestCompileCacheLevel2Reuse pins what each level serves: a climate change
// is runtime-only, so it is a level-1 hit that compiles nothing; a
// workload-seed change recompiles the scenario but reuses the layout.
func TestCompileCacheLevel2Reuse(t *testing.T) {
	cache := NewCompileCache(0)
	sc := quickScenario()
	if _, err := cache.Compile(sc); err != nil {
		t.Fatal(err)
	}

	climate := sc
	climate.Region.Name = "cooler"
	climate.Region.MeanC -= 10
	climate.StartOffset += time.Hour
	cs, err := cache.Compile(climate)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Compiles != 1 || st.Scenarios.Hits != 1 {
		t.Errorf("climate change: compiles=%d scenario hits=%d, want 1/1 (a hit)", st.Compiles, st.Scenarios.Hits)
	}
	if cs.Scenario.Region != climate.Region || cs.Scenario.StartOffset != climate.StartOffset {
		t.Error("climate hit did not adopt the caller's region and start offset")
	}

	demand := sc
	demand.Workload.Seed++
	if _, err := cache.Compile(demand); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Compiles != 2 {
		t.Errorf("workload change: compiles=%d, want 2", st.Compiles)
	}
	if st.Layouts.Hits != 1 || st.Layouts.Misses != 1 {
		t.Errorf("workload change: layout hits=%d misses=%d, want 1/1 (layout unchanged)", st.Layouts.Hits, st.Layouts.Misses)
	}
}

// TestCompileCacheBound proves the entry bound and re-miss after eviction.
func TestCompileCacheBound(t *testing.T) {
	cache := NewCompileCache(2)
	scenarios := make([]Scenario, 3)
	for i := range scenarios {
		sc := quickScenario()
		sc.Workload.Seed += uint64(i)
		scenarios[i] = sc
		if _, err := cache.Compile(sc); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Scenarios.Entries != 2 {
		t.Errorf("scenario entries = %d, want 2 (bound)", st.Scenarios.Entries)
	}
	if st.Scenarios.Evictions != 1 {
		t.Errorf("scenario evictions = %d, want 1", st.Scenarios.Evictions)
	}
	// The first scenario was least recently used and evicted; compiling it
	// again is a cold compile.
	if _, err := cache.Compile(scenarios[0]); err != nil {
		t.Fatal(err)
	}
	if n := cache.Compiles(); n != 4 {
		t.Errorf("compiles = %d, want 4 (evicted scenario recompiles)", n)
	}
}

// TestLRUCacheOrderAndEviction is the white-box LRU contract: recency order,
// eviction of the least recently used entry, and the counters.
func TestLRUCacheOrderAndEviction(t *testing.T) {
	key := func(b byte) CacheKey { var k CacheKey; k[0] = b; return k }
	c := newLRUCache[int](3)
	for b := byte(1); b <= 3; b++ {
		c.add(key(b), int(b))
	}
	if _, ok := c.get(key(1)); !ok { // touch 1: order is now 1,3,2
		t.Fatal("fresh entry missing")
	}
	c.add(key(4), 4) // evicts 2, the LRU

	want := []CacheKey{key(4), key(1), key(3)}
	if got := c.keysMRU(); !reflect.DeepEqual(got, want) {
		t.Errorf("MRU order = %v, want %v", got, want)
	}
	if _, ok := c.get(key(2)); ok {
		t.Error("evicted entry still present")
	}
	if v, ok := c.get(key(1)); !ok || v != 1 {
		t.Errorf("get(1) = %d,%v; want 1,true", v, ok)
	}
	st := c.stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Errorf("evictions=%d entries=%d, want 1/3", st.Evictions, st.Entries)
	}
	// Re-adding an existing key keeps the incumbent value and refreshes it.
	c.add(key(3), 33)
	if v, _ := c.get(key(3)); v != 3 {
		t.Errorf("duplicate add replaced the incumbent: got %d, want 3", v)
	}
	if got := c.keysMRU()[0]; got != key(3) {
		t.Errorf("duplicate add did not refresh recency: MRU is %v", got)
	}
}

// TestCompileCacheWaitsForInFlightCompile pins the flight-wait branch of
// Compile without relying on goroutine timing: with a compile of the key
// registered in flight, a caller waits for it and adopts its result with its
// own runtime-only fields, or returns its error, and never compiles itself.
// The waiter counts as neither a hit nor a miss, so the scenario level's
// misses stay equal to the cold compiles.
func TestCompileCacheWaitsForInFlightCompile(t *testing.T) {
	sc := quickScenario()
	compiled, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	fine := sc
	fine.Tick = 30 * time.Second
	boom := errors.New("compile failed")
	for _, tc := range []struct {
		name string
		cs   *CompiledScenario
		err  error
	}{{"result", compiled, nil}, {"error", nil, boom}} {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewCompileCache(0)
			key, err := ScenarioKey(sc)
			if err != nil {
				t.Fatal(err)
			}
			call := &flightCall{done: make(chan struct{})}
			cache.mu.Lock()
			cache.flight[key] = call
			cache.mu.Unlock()
			type out struct {
				cs  *CompiledScenario
				err error
			}
			got := make(chan out, 1)
			go func() {
				cs, err := cache.Compile(fine)
				got <- out{cs, err}
			}()
			// The entry stays in flight until the test ends, so the caller
			// waits whenever it runs.
			call.cs, call.err = tc.cs, tc.err
			close(call.done)
			res := <-got
			if st := cache.Stats().Scenarios; st.Hits != 0 || st.Misses != 0 {
				t.Errorf("waiter recorded %d hits and %d misses, want neither", st.Hits, st.Misses)
			}
			if tc.err != nil {
				if !errors.Is(res.err, tc.err) {
					t.Fatalf("err = %v, want the in-flight compile's error", res.err)
				}
				return
			}
			if res.err != nil {
				t.Fatal(res.err)
			}
			if res.cs.DC != compiled.DC || res.cs.Scenario.Tick != fine.Tick {
				t.Errorf("waiter did not adopt the in-flight compilation with its own tick (DC shared %v, tick %v)",
					res.cs.DC == compiled.DC, res.cs.Scenario.Tick)
			}
			if n := cache.Compiles(); n != 0 {
				t.Errorf("waiter compiled %d times itself", n)
			}
		})
	}
}

// TestCompileCacheConcurrent hammers one cache from many goroutines (run
// under -race in CI): concurrent compiles of the same scenario collapse into
// one cold compile via the flight map, and every caller gets a result that
// runs correctly.
func TestCompileCacheConcurrent(t *testing.T) {
	scA := quickScenario()
	scB := quickScenario()
	scB.Workload.Seed++

	cache := NewCompileCache(0)
	const workers = 16
	results := make([]*CompiledScenario, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			sc := scA
			if w%2 == 1 {
				sc = scB
			}
			results[w], errs[w] = cache.Compile(sc)
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if results[w] == nil {
			t.Fatalf("worker %d: nil compilation", w)
		}
	}
	if n := cache.Compiles(); n != 2 {
		t.Errorf("cache performed %d compiles for 2 unique scenarios", n)
	}
	if _, err := results[0].Run(naivePolicy{}); err != nil {
		t.Fatal(err)
	}
}
