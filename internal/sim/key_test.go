package sim

import (
	"math"
	"os"
	"path/filepath"
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
// every field a compiled scenario can vary per run (the Variant set — Tick,
// Failures, Observer, SLOSched, PowerGov — plus
// Workload.Servers, which Compile overwrites from the layout) must not move
// the key, so cache hits serve all runtime variants of one compilation.
func TestScenarioKeyIgnoresRuntimeOnly(t *testing.T) {
	base := SmallScenario()
	want := mustKey(t, base)
	mutations := map[string]func(*Scenario){
		"tick": func(sc *Scenario) { sc.Tick = 30 * time.Second },
		"failures": func(sc *Scenario) {
			sc.Failures = []FailureEvent{{Kind: PowerFailure, At: time.Minute, Duration: time.Minute}}
		},
		"observer":         func(sc *Scenario) { sc.Observer = func(*cluster.State) {} },
		"workload_servers": func(sc *Scenario) { sc.Workload.Servers = 9999 },
		"slo_sched":        func(sc *Scenario) { sc.SLOSched = SLOSched{AffinityWeight: 0.25, AdmissionSlack: 1.5} },
		"power_gov":        func(sc *Scenario) { sc.PowerGov = PowerGov{BudgetFrac: 0.7, Gain: 0.5} },
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
		"workload.duration":      func(sc *Scenario) { sc.Workload.Duration += time.Minute },
		"region.name":            func(sc *Scenario) { sc.Region.Name = "elsewhere" },
		"region.mean_c":          func(sc *Scenario) { sc.Region.MeanC += 1 },
		"duration":               func(sc *Scenario) { sc.Duration += time.Minute },
		"start_offset":           func(sc *Scenario) { sc.StartOffset += time.Hour },
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
		wl, err := trace.Generate(trace.WorkloadConfig{
			Servers: 8, SaaSFraction: 0.5, Duration: 10 * time.Minute, Endpoints: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteWorkloadCSV(f, wl); err != nil {
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
