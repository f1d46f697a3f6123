package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// collapsingSpec sweeps an axis whose first two values are identical, so two
// of the three grid points hash to the same compile-relevant scenario.
const collapsingSpec = `{
  "name": "collapsing",
  "layout": {"preset": "small"},
  "duration": "10m",
  "policies": ["baseline"],
  "axes": [{
    "param": "workload.demand_scale",
    "values": [1.0, 1.0, 2.0],
    "labels": ["control", "repeat", "doubled"]
  }]
}`

// TestCampaignDedupCollapsedAxis is the dedup satellite: grid points that
// collapse to one content key compile once, so a collapsed axis compiles
// strictly fewer times than len(Points) — with and without a cache.
func TestCampaignDedupCollapsedAxis(t *testing.T) {
	spec, err := Parse([]byte(collapsingSpec))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 3 {
		t.Fatalf("grid has %d points, want 3", len(c.Points))
	}
	res, err := c.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compiles != 2 {
		t.Errorf("Compiles = %d, want 2 (< %d points)", res.Compiles, len(c.Points))
	}
	// The collapsed points must still report: identical inputs, identical
	// rows; the distinct third point differs.
	base := res.Runs[0]
	if base[0].SaaSServedTokens != base[1].SaaSServedTokens {
		t.Error("collapsed points produced different results")
	}
	if base[0].SaaSDemandTokens == base[2].SaaSDemandTokens {
		t.Error("distinct grid point produced the collapsed result")
	}

	cache := sim.NewCompileCache(0)
	if _, err := c.Run(RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if n := cache.Compiles(); n != 2 {
		t.Errorf("cache performed %d compiles, want 2", n)
	}
}

// TestPolicyAxesShareCompilations pins that policy parameters are run
// options: power-loop's budget axis varies only PowerGov, so its six grid
// points compile three scenarios, one per demand factor. TestCampaignGolden
// Reports pins that the shared compilations still report byte-identically.
func TestPolicyAxesShareCompilations(t *testing.T) {
	c, err := loadExample(t, "power-loop.json").Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[sim.CacheKey]bool)
	for _, pt := range c.Points {
		k, err := sim.ScenarioKey(pt.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if len(c.Points) != 6 || len(keys) != 3 {
		t.Errorf("power-loop: %d grid points compile %d scenarios, want 6 and 3", len(c.Points), len(keys))
	}
}

// TestClimateAxesShareCompilations pins that weather is a run input:
// heatwave-sweep's four region.mean_c points and replay-pinned's three region
// points differ only in the outside-temperature series, so each campaign
// compiles one scenario, and the shared compilation still renders the
// committed golden.
func TestClimateAxesShareCompilations(t *testing.T) {
	for _, name := range []string{"heatwave-sweep", "replay-pinned"} {
		t.Run(name, func(t *testing.T) {
			c, err := loadExample(t, name+".json").Campaign(0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Compiles != 1 {
				t.Errorf("%d grid points compile %d scenarios, want 1", len(c.Points), res.Compiles)
			}
			var sb strings.Builder
			if _, err := res.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if sb.String() != string(want) {
				t.Errorf("report deviates from golden:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
			}
		})
	}
}

// TestExampleCompileCounts pins how many distinct scenarios each committed
// campaign compiles, the count tapas-campaign prints: a change to the key's
// fields shows up here before it shows up as a slower sweep.
func TestExampleCompileCounts(t *testing.T) {
	for _, tc := range []struct {
		path     string
		compiles int
	}{
		{"examples/scenarios/fig20-ablation.json", 5},
		{"examples/scenarios/heatwave-sweep.json", 1},
		{"examples/scenarios/hetero-fleet.json", 3},
		{"examples/scenarios/hyperscale-smoke.json", 2},
		{"examples/scenarios/power-loop.json", 3},
		{"examples/scenarios/replay-pinned.json", 1},
		{"examples/scenarios/replay-scaled.json", 4},
		{"examples/scenarios/rolling-emergencies.json", 1},
		{"examples/scenarios/slo-policies.json", 3},
		{"examples/scenarios/slo-replay.json", 3},
		{"benchmark/workloads/fleet-day.json", 1},
	} {
		t.Run(filepath.Base(tc.path), func(t *testing.T) {
			s, err := Load(filepath.Join("..", "..", filepath.FromSlash(tc.path)))
			if err != nil {
				t.Fatal(err)
			}
			c, err := s.Campaign(0)
			if err != nil {
				t.Fatal(err)
			}
			keys := make(map[sim.CacheKey]bool)
			for _, pt := range c.Points {
				k, err := sim.ScenarioKey(pt.Scenario)
				if err != nil {
					t.Fatal(err)
				}
				keys[k] = true
			}
			if len(keys) != tc.compiles {
				t.Errorf("%d grid points compile %d scenarios, want %d", len(c.Points), len(keys), tc.compiles)
			}
		})
	}
}

// TestCampaignWarmRerunSkipsAllCompiles is the warm-rerun acceptance check:
// a second run of the same campaign through the same cache performs zero
// compile work (cold-compile counter flat, no new scenario misses) and its
// report is byte-identical to the cold run's.
func TestCampaignWarmRerunSkipsAllCompiles(t *testing.T) {
	spec, err := Parse([]byte(collapsingSpec))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCompileCache(0)
	render := func() string {
		t.Helper()
		res, err := c.Run(RunOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := res.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	cold := render()
	coldStats := cache.Stats()
	warm := render()
	warmStats := cache.Stats()

	if warm != cold {
		t.Errorf("warm report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if warmStats.Compiles != coldStats.Compiles {
		t.Errorf("warm rerun compiled: %d -> %d cold compiles", coldStats.Compiles, warmStats.Compiles)
	}
	if warmStats.Scenarios.Misses != coldStats.Scenarios.Misses {
		t.Errorf("warm rerun missed: %d -> %d scenario misses", coldStats.Scenarios.Misses, warmStats.Scenarios.Misses)
	}
	if got := warmStats.Scenarios.Hits - coldStats.Scenarios.Hits; got == 0 {
		t.Error("warm rerun recorded no scenario hits")
	}
}

// TestCampaignCachedReportMatchesGolden proves cache-served campaigns render
// byte-identically to the committed golden of a cold run: the heatwave-sweep
// example is run twice through one cache, and the warm (all-hit) report is
// diffed against the golden the cacheless test pins.
func TestCampaignCachedReportMatchesGolden(t *testing.T) {
	s := loadExample(t, "heatwave-sweep.json")
	c, err := s.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewCompileCache(0)
	var warm string
	for i := 0; i < 2; i++ {
		res, err := c.Run(RunOptions{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if _, err := res.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		warm = sb.String()
	}
	if misses := cache.Stats().Scenarios.Misses; misses != uint64(cache.Compiles()) {
		t.Fatalf("second run was not all hits: %d misses for %d compiles", misses, cache.Compiles())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "heatwave-sweep.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if warm != string(want) {
		t.Errorf("cache-hit report deviates from golden:\n--- got ---\n%s--- want ---\n%s", warm, want)
	}
}

// TestCampaignProgressAndContext covers the run-granular hooks RunOptions
// grew for the daemon: OnProgress fires once per completed run, and an
// already-canceled context stops the campaign before any work.
func TestCampaignProgressAndContext(t *testing.T) {
	spec, err := Parse([]byte(collapsingSpec))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var calls, lastDone, lastTotal int
	_, err = c.Run(RunOptions{OnProgress: func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done > lastDone {
			lastDone = done
		}
		lastTotal = total
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Runs(); calls != want || lastDone != want || lastTotal != want {
		t.Errorf("progress calls=%d lastDone=%d total=%d, want all %d", calls, lastDone, lastTotal, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Run(RunOptions{Context: ctx}); err == nil {
		t.Error("canceled context did not fail the campaign")
	} else if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error %v does not surface the cancellation", err)
	}
}

// TestCampaignReturnsKeyingError pins that a point the cache cannot key fails
// the campaign with that error. Spec-built campaigns load every splice
// overlay, so the point here is edited to replay a trace through a splice
// that was never loaded.
func TestCampaignReturnsKeyingError(t *testing.T) {
	spec, err := Parse([]byte(collapsingSpec))
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Generate(trace.WorkloadConfig{Servers: 8, SaaSFraction: 0.5, Duration: 10 * time.Minute, Endpoints: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := transform.Parse([]byte(`[{"op":"splice","trace":"overlay.csv"}]`))
	if err != nil {
		t.Fatal(err)
	}
	c.Points[1].Scenario.Trace = w
	c.Points[1].Scenario.TraceTransforms = chain
	if _, err := c.Run(RunOptions{}); err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("err = %v, want the splice's not-loaded error", err)
	}
}
