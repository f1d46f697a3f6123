package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// syntheticQuickSpec is the generated-workload side of the record/replay
// golden: a single-point quick campaign whose CSV report carries
// full-precision metric values, so equality below is byte-exact.
const syntheticQuickSpec = `{
  "name": "gen",
  "layout": {"preset": "small"},
  "duration": "20m",
  "policies": ["baseline", "tapas"],
  "report": {
    "format": "csv",
    "metrics": ["max_temp_c", "peak_power_kw", "energy_mwh", "throttle_pct",
                "power_cap_pct", "slo_violation_pct", "quality", "service_rate",
                "iaas_perf_loss_pct", "placement_rejects"]
  }
}`

// TestReplayCampaignReproducesSyntheticReport is the end-to-end golden of
// the record/replay pipeline: run a synthetic campaign, export its workload
// with the CSV writer, replay the exported trace through the workload.trace
// spec field, and require the campaign report to be byte-identical — at any
// worker count.
func TestReplayCampaignReproducesSyntheticReport(t *testing.T) {
	synth, err := Parse([]byte(syntheticQuickSpec))
	if err != nil {
		t.Fatal(err)
	}
	want := runCampaign(t, synth, 0)

	// Record: materialize the exact workload the synthetic campaign
	// simulated and archive it next to a replay spec in a temp dir.
	c, err := synth.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := sim.GenerateWorkload(c.Points[0].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := trace.SaveWorkloadCSV(filepath.Join(dir, "recorded.csv"), wl); err != nil {
		t.Fatal(err)
	}
	replayJSON := strings.Replace(syntheticQuickSpec, `"layout": {"preset": "small"},`,
		`"layout": {"preset": "small"},
  "workload": {"trace": "recorded.csv"},`, 1)
	specPath := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(specPath, []byte(replayJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	// Replay through the file loader, so relative-path resolution against
	// the spec directory is on the tested path.
	replay, err := Load(specPath)
	if err != nil {
		t.Fatal(err)
	}
	seq := runCampaign(t, replay, 1)
	par := runCampaign(t, replay, 8)
	if seq != want {
		t.Errorf("replay report differs from synthetic report:\n--- replay ---\n%s--- synthetic ---\n%s", seq, want)
	}
	if par != seq {
		t.Errorf("replay report differs between -parallel 1 and 8:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
}

// TestWorkloadTraceSpecValidation pins the mutual-exclusion contract of
// workload.trace.
func TestWorkloadTraceSpecValidation(t *testing.T) {
	cases := map[string]struct {
		json    string
		wantSub string
	}{
		"trace with synthetic field": {
			`{"name": "x", "workload": {"trace": "t.csv", "saas_fraction": 0.5}}`,
			"synthetic field workload.saas_fraction",
		},
		"trace with seed override": {
			`{"name": "x", "workload": {"trace": "t.csv", "seed": 7}}`,
			"synthetic field workload.seed",
		},
		"trace with workload axis": {
			`{"name": "x", "workload": {"trace": "t.csv"},
			  "axes": [{"param": "workload.saas_fraction", "values": [0.2, 0.8]}]}`,
			`axis "workload.saas_fraction" cannot be swept`,
		},
		"trace with seed axis": {
			`{"name": "x", "workload": {"trace": "t.csv"},
			  "axes": [{"param": "seed", "values": [1, 2]}]}`,
			`axis "seed" cannot be swept`,
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}

	// Climate / failure / policy sweeps stay legal over a pinned trace.
	ok := `{"name": "x", "workload": {"trace": "t.csv"},
	        "axes": [{"param": "region", "values": ["hot", "cool"]}]}`
	if _, err := Parse([]byte(ok)); err != nil {
		t.Errorf("region sweep over a trace must validate: %v", err)
	}
}

// TestWorkloadTransformsSpecValidation pins the transforms field's
// contracts: requires a trace, rejects malformed chains, and the transform.*
// axes need exactly one matching step (and at most one axis per step).
func TestWorkloadTransformsSpecValidation(t *testing.T) {
	cases := map[string]struct {
		json    string
		wantSub string
	}{
		"transforms without trace": {
			`{"name": "x", "workload": {"transforms": [{"op": "demand_scale", "factor": 2}]}}`,
			"workload.transforms requires workload.trace",
		},
		"malformed chain": {
			`{"name": "x", "workload": {"trace": "t.csv", "transforms": [{"op": "resample"}]}}`,
			`unknown op "resample"`,
		},
		"invalid step params": {
			`{"name": "x", "workload": {"trace": "t.csv", "transforms": [{"op": "time_warp", "factor": -1}]}}`,
			"out of",
		},
		"axis without step": {
			`{"name": "x", "workload": {"trace": "t.csv"},
			  "axes": [{"param": "transform.demand_scale", "values": [1, 2]}]}`,
			"needs exactly one demand_scale step",
		},
		"axis with two steps": {
			`{"name": "x", "workload": {"trace": "t.csv",
			  "transforms": [{"op": "demand_scale", "factor": 1}, {"op": "demand_scale", "factor": 2}]},
			  "axes": [{"param": "transform.demand_scale", "values": [1, 2]}]}`,
			"(found 2)",
		},
		"two axes one step": {
			`{"name": "x", "workload": {"trace": "t.csv",
			  "transforms": [{"op": "demand_scale", "factor": 1}]},
			  "axes": [{"param": "transform.demand_scale", "values": [1, 2]},
			           {"param": "transform.demand_scale.saas", "values": [1, 2]}]}`,
			"both sweep the demand_scale step",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Parse([]byte(tc.json))
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}

	// A well-formed transform sweep over a pinned trace validates.
	ok := `{"name": "x", "workload": {"trace": "t.csv",
	        "transforms": [{"op": "demand_scale", "factor": 1}, {"op": "jitter", "sigma": "90s"}]},
	        "axes": [{"param": "transform.demand_scale", "values": [0.5, 1, 2]}]}`
	if _, err := Parse([]byte(ok)); err != nil {
		t.Errorf("transform sweep must validate: %v", err)
	}
}

// TestTransformSweepClonesChain: grid points must not alias the base
// scenario's chain — each point carries its own cloned step values.
func TestTransformSweepClonesChain(t *testing.T) {
	spec, err := Parse([]byte(`{"name": "x", "layout": {"preset": "small"}, "duration": "20m",
	  "workload": {"trace": "t.csv", "transforms": [{"op": "demand_scale", "factor": 1, "seed": 3}]},
	  "axes": [{"param": "transform.demand_scale", "values": [0.5, 1, 2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	// Point the trace at a real recorded workload.
	dir := t.TempDir()
	sc := sim.SmallScenario()
	sc.Duration = 20 * time.Minute
	wl, err := sim.GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveWorkloadCSV(filepath.Join(dir, "t.csv"), wl); err != nil {
		t.Fatal(err)
	}
	spec.dir = dir
	c, err := spec.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 3 {
		t.Fatalf("grid has %d points, want 3", len(c.Points))
	}
	var factors []float64
	for _, p := range c.Points {
		ds := p.Scenario.TraceTransforms[0].(*transform.DemandScale)
		factors = append(factors, ds.Factor)
	}
	if factors[0] != 0.5 || factors[1] != 1 || factors[2] != 2 {
		t.Errorf("per-point factors %v, want [0.5 1 2]", factors)
	}

	// A swept 0 must fail loudly — DemandScale treats 0 as "unset = 1", so
	// letting it through would run an unscaled point under a "0" label.
	for _, param := range []string{"transform.demand_scale", "transform.demand_scale.saas", "transform.demand_scale.iaas"} {
		zero := *spec
		zero.Axes = []AxisSpec{{Param: param, Values: []AxisValue{{Num: 0, IsNum: true}}}}
		if _, err := zero.Campaign(0); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s swept at 0: got %v, want positive-value rejection", param, err)
		}
	}
	// All points share the same loaded trace pointer (read-only), not the
	// same chain.
	if c.Points[0].Scenario.Trace != c.Points[1].Scenario.Trace {
		t.Error("grid points must share the loaded trace")
	}
	if &c.Points[0].Scenario.TraceTransforms[0] == &c.Points[1].Scenario.TraceTransforms[0] {
		t.Error("grid points alias the same chain slice")
	}
}

// TestWorkloadTraceMissingFile requires a clear campaign-time error when the
// recorded trace cannot be loaded.
func TestWorkloadTraceMissingFile(t *testing.T) {
	s, err := Parse([]byte(`{"name": "x", "layout": {"preset": "small"}, "workload": {"trace": "missing.csv"}}`))
	if err != nil {
		t.Fatal(err)
	}
	s.dir = t.TempDir()
	if _, err := s.Campaign(0); err == nil || !strings.Contains(err.Error(), "loading workload.trace") {
		t.Errorf("got %v, want loading error", err)
	}
}
