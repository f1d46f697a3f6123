package sim

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

func mustKey(t *testing.T, sc Scenario) CacheKey {
	t.Helper()
	k, err := ScenarioKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestScenarioKeyIgnoresRuntimeOnly pins the key's canonicalization contract:
// every field a compiled scenario can vary per run (the ForScenario set —
// Tick, Failures, Observer, Region, StartOffset, SLOSched, PowerGov — plus
// Workload.Servers and Workload.Duration, which Compile fills from the layout
// and Duration) must not move the key, so cache hits serve all runtime
// variants of one compilation.
func TestScenarioKeyIgnoresRuntimeOnly(t *testing.T) {
	base := SmallScenario()
	want := mustKey(t, base)
	mutations := map[string]func(*Scenario){
		"tick": func(sc *Scenario) { sc.Tick = 30 * time.Second },
		"failures": func(sc *Scenario) {
			sc.Failures = []FailureEvent{{Kind: PowerFailure, At: time.Minute, Duration: time.Minute}}
		},
		"observer":          func(sc *Scenario) { sc.Observer = func(*cluster.State) {} },
		"workload_servers":  func(sc *Scenario) { sc.Workload.Servers = 9999 },
		"workload_duration": func(sc *Scenario) { sc.Workload.Duration = 7 * 24 * time.Hour },
		"slo_sched":         func(sc *Scenario) { sc.SLOSched = SLOSched{AffinityWeight: 0.25, AdmissionSlack: 1.5} },
		"power_gov":         func(sc *Scenario) { sc.PowerGov = PowerGov{BudgetFrac: 0.7, Gain: 0.5} },
		"region.name":       func(sc *Scenario) { sc.Region.Name = "elsewhere" },
		"region.mean_c":     func(sc *Scenario) { sc.Region.MeanC += 1 },
		"start_offset":      func(sc *Scenario) { sc.StartOffset += time.Hour },
	}
	for name, mutate := range mutations {
		sc := base
		mutate(&sc)
		if got := mustKey(t, sc); got != want {
			t.Errorf("%s: runtime-only mutation moved the key", name)
		}
	}
}

// TestScenarioKeySensitivity proves every compile-relevant field moves the
// key: a collision here would serve the wrong compilation from cache.
func TestScenarioKeySensitivity(t *testing.T) {
	base := SmallScenario()
	want := mustKey(t, base)
	mutations := map[string]func(*Scenario){
		"layout.gpu":             func(sc *Scenario) { sc.Layout.GPU = layout.H100 },
		"layout.seed":            func(sc *Scenario) { sc.Layout.Seed++ },
		"layout.aisles":          func(sc *Scenario) { sc.Layout.Aisles++ },
		"layout.fleet_scale":     func(sc *Scenario) { sc.Layout.FleetScale = 2 },
		"oversubscribe":          func(sc *Scenario) { sc.Oversubscribe = 0.2 },
		"workload.seed":          func(sc *Scenario) { sc.Workload.Seed++ },
		"workload.saas_fraction": func(sc *Scenario) { sc.Workload.SaaSFraction = 0.7 },
		"duration":               func(sc *Scenario) { sc.Duration += time.Minute },
	}
	seen := map[CacheKey]string{want: "base"}
	for name, mutate := range mutations {
		sc := base
		mutate(&sc)
		got := mustKey(t, sc)
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: key collides with %s", name, prev)
		}
		seen[got] = name
	}
}

// TestScenarioKeyNormalizesZero pins ±0 canonicalization: the two float zero
// bit patterns generate identical scenarios, so they must key identically.
func TestScenarioKeyNormalizesZero(t *testing.T) {
	pos := SmallScenario()
	neg := pos
	neg.Oversubscribe = math.Copysign(0, -1)
	if mustKey(t, pos) != mustKey(t, neg) {
		t.Error("-0 and +0 oversubscription key differently")
	}
}

// TestScenarioKeyReplayByContent proves replayed traces key by content, not
// identity: two loads of the same CSV share a key, different content does
// not, and the transform chain is part of the key.
func TestScenarioKeyReplayByContent(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed uint64) string {
		t.Helper()
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteWorkloadCSV(f, smallTrace(t, seed)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pathA := write("a.csv", 1)
	pathB := write("b.csv", 2)

	scenarioFor := func(path string) Scenario {
		t.Helper()
		wl, err := trace.LoadWorkloadCSV(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := SmallScenario()
		sc.Trace = wl
		return sc
	}
	first := mustKey(t, scenarioFor(pathA))
	second := mustKey(t, scenarioFor(pathA)) // fresh load, distinct pointer
	if first != second {
		t.Error("two loads of the same trace key differently")
	}
	if other := mustKey(t, scenarioFor(pathB)); other == first {
		t.Error("different trace content shares a key")
	}

	chain, err := transform.Parse([]byte(`[{"op":"demand_scale","factor":2}]`))
	if err != nil {
		t.Fatal(err)
	}
	transformed := scenarioFor(pathA)
	transformed.TraceTransforms = chain
	if mustKey(t, transformed) == first {
		t.Error("transform chain does not move the key")
	}
}

// smallTrace generates a small recorded-style workload for keying tests.
func smallTrace(t *testing.T, seed uint64) *trace.Workload {
	t.Helper()
	wl, err := trace.Generate(trace.WorkloadConfig{
		Servers: 8, SaaSFraction: 0.5, Duration: 10 * time.Minute, Endpoints: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestScenarioKeySpliceOverlay covers the key's splice branch: the chain's
// canonical JSON names only the overlay's path, so the overlay keys by its
// content, and an overlay that was never loaded is an error, not a key.
func TestScenarioKeySpliceOverlay(t *testing.T) {
	base := smallTrace(t, 1)
	spliced := func(overlay *trace.Workload) Scenario {
		t.Helper()
		chain, err := transform.Parse([]byte(`[{"op":"splice","trace":"overlay.csv"}]`))
		if err != nil {
			t.Fatal(err)
		}
		if overlay != nil {
			chain[0].(*transform.Splice).SetWorkload(overlay)
		}
		sc := SmallScenario()
		sc.Trace = base
		sc.TraceTransforms = chain
		return sc
	}
	first := mustKey(t, spliced(smallTrace(t, 2)))
	if again := mustKey(t, spliced(smallTrace(t, 2))); again != first {
		t.Error("two overlays with the same content key differently")
	}
	if other := mustKey(t, spliced(smallTrace(t, 3))); other == first {
		t.Error("overlay content does not move the key")
	}
	if _, err := ScenarioKey(spliced(nil)); err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("unloaded overlay: err = %v, want a not-loaded error", err)
	}
}

// TestFingerprintMemo pins the memo a CompileCache keys traces through: a
// repeated fingerprint of one trace is served from the memo, and a full memo
// is dropped wholesale rather than grown past its bound.
func TestFingerprintMemo(t *testing.T) {
	w1, w2 := smallTrace(t, 1), smallTrace(t, 2)
	var direct *fingerprintMemo // nil: no memo
	want, err := direct.fingerprint(w1)
	if err != nil {
		t.Fatal(err)
	}
	m := newFingerprintMemo(1)
	if got, err := m.fingerprint(w1); err != nil || got != want {
		t.Fatalf("memoized fingerprint = %v, %v; want %v", got, err, want)
	}
	if fp, ok := m.get(w1); !ok || fp != want {
		t.Fatalf("memo holds %v, %v after a fingerprint; want %v", fp, ok, want)
	}
	// A planted entry proves the next lookup reads the memo instead of
	// re-serializing the trace.
	planted := CacheKey{1}
	m.put(w1, planted)
	if got, err := m.fingerprint(w1); err != nil || got != planted {
		t.Errorf("repeated fingerprint = %v, %v; want the memoized %v", got, err, planted)
	}
	if _, err := m.fingerprint(w2); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.get(w1); ok || len(m.fps) != 1 {
		t.Errorf("full memo kept %d entries (w1 present: %v), want only w2", len(m.fps), ok)
	}
}

// TestFingerprintMemoHoldsOneCampaign pins the compile cache's memo bound:
// keying many distinct trace pointers (a daemon loads each submission's
// trace afresh) leaves at most fingerprintMemoEntries of them alive in the
// memo, while the points of one replay campaign, which share the trace and
// its splice overlay, serialize them once: planted entries prove every later
// point reads the memo.
func TestFingerprintMemoHoldsOneCampaign(t *testing.T) {
	c := NewCompileCache(0)
	for i := 0; i < 4*fingerprintMemoEntries; i++ {
		sc := SmallScenario()
		sc.Trace = smallTrace(t, 1)
		if _, err := scenarioKey(sc, c.fp); err != nil {
			t.Fatal(err)
		}
		if n := len(c.fp.fps); n > fingerprintMemoEntries {
			t.Fatalf("memo holds %d traces after %d submissions, want at most %d", n, i+1, fingerprintMemoEntries)
		}
	}

	shared, overlay := smallTrace(t, 2), smallTrace(t, 3)
	chain, err := transform.Parse([]byte(`[{"op":"splice","trace":"overlay.csv"}]`))
	if err != nil {
		t.Fatal(err)
	}
	chain[0].(*transform.Splice).SetWorkload(overlay)
	points := make([]Scenario, 4)
	for i := range points {
		points[i] = SmallScenario()
		points[i].Trace, points[i].TraceTransforms = shared, chain
		points[i].Duration = time.Duration(i+1) * 10 * time.Minute
	}
	if _, err := scenarioKey(points[0], c.fp); err != nil {
		t.Fatal(err)
	}
	planted := newFingerprintMemo(2)
	for i, w := range []*trace.Workload{shared, overlay} {
		if _, ok := c.fp.get(w); !ok {
			t.Fatalf("the first point left trace %d out of the memo", i)
		}
		c.fp.put(w, CacheKey{byte(i + 1)})
		planted.put(w, CacheKey{byte(i + 1)})
	}
	for i, sc := range points[1:] {
		got, err := scenarioKey(sc, c.fp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := scenarioKey(sc, planted)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got == mustKey(t, sc) {
			t.Errorf("point %d serialized a trace the campaign's first point had keyed", i+1)
		}
	}
}
