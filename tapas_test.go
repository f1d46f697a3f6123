package tapas_test

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	tapas "github.com/tapas-sim/tapas"
)

func TestQuickScenarioEndToEnd(t *testing.T) {
	sc := tapas.QuickScenario()
	base, err := tapas.Run(sc, tapas.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	full, err := tapas.Run(sc, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	if full.PeakPower() >= base.PeakPower() {
		t.Errorf("TAPAS peak %.0f should beat baseline %.0f", full.PeakPower(), base.PeakPower())
	}
}

func TestNewVariantNames(t *testing.T) {
	if tapas.NewVariant(true, true, true).Name() != "TAPAS" {
		t.Error("all levers must be named TAPAS")
	}
	if tapas.NewVariant(false, false, false).Name() != "Baseline" {
		t.Error("no levers must be named Baseline")
	}
	if tapas.NewVariant(true, false, true).Name() != "Place+Config" {
		t.Error("partial variant name wrong")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := tapas.ExperimentIDs()
	if len(ids) != 22 {
		t.Fatalf("experiments = %d, want 22", len(ids))
	}
	title, ok := tapas.ExperimentTitle("fig21")
	if !ok || title == "" {
		t.Error("fig21 must have a title")
	}
	if _, ok := tapas.ExperimentTitle("bogus"); ok {
		t.Error("bogus experiment must not resolve")
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	var sb strings.Builder
	if err := tapas.RunExperiment("bogus", 1, 1, &sb); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// TestRunExperimentRejectsScaleOutsideUnit: a scale outside [0, 1] is an
// error, not a run at the presets' floors, and nothing is written.
func TestRunExperimentRejectsScaleOutsideUnit(t *testing.T) {
	for _, scale := range []float64{math.NaN(), math.Inf(1), 2, -1} {
		var sb strings.Builder
		err := tapas.RunExperimentWith("table1", tapas.ExperimentParams{Scale: scale, Seed: 42}, &sb)
		if err == nil || !strings.Contains(err.Error(), "outside [0, 1]") || sb.Len() != 0 {
			t.Errorf("scale %v: err = %v, wrote %d bytes; want an outside-[0, 1] error and no output", scale, err, sb.Len())
		}
	}
}

func TestRunExperimentTable1(t *testing.T) {
	var sb strings.Builder
	if err := tapas.RunExperiment("table1", 0.1, 42, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Frequency") {
		t.Errorf("table1 output missing rows:\n%s", sb.String())
	}
}

// TestRecordReplayPublicAPI drives the record/replay surface end to end:
// generate, export, load, replay — and require the replayed run to match the
// generated one exactly.
func TestRecordReplayPublicAPI(t *testing.T) {
	sc := tapas.QuickScenario()
	wl, err := tapas.GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tapas.ExportTrace(&buf, wl); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.csv"
	if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := tapas.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := tapas.Run(sc, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	replay := sc
	replay.Trace = loaded
	rep, err := tapas.Run(replay, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	if gen.MaxTemp() != rep.MaxTemp() || gen.PeakPower() != rep.PeakPower() ||
		gen.ServiceRate() != rep.ServiceRate() || gen.Ticks != rep.Ticks {
		t.Errorf("replayed run differs from generated run:\ngen: maxT=%v peakW=%v svc=%v\nrep: maxT=%v peakW=%v svc=%v",
			gen.MaxTemp(), gen.PeakPower(), gen.ServiceRate(),
			rep.MaxTemp(), rep.PeakPower(), rep.ServiceRate())
	}
}

func TestFailureScenario(t *testing.T) {
	sc := tapas.QuickScenario()
	sc.Failures = []tapas.FailureEvent{{Kind: tapas.PowerFailure, At: 0, Duration: sc.Duration}}
	res, err := tapas.Run(sc, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ticks == 0 {
		t.Fatal("no ticks simulated")
	}
}

// TestCompileMatchesRun: runs of one compiled scenario reproduce Run, which
// compiles per call, for both policies.
func TestCompileMatchesRun(t *testing.T) {
	sc := tapas.QuickScenario()
	cs, err := tapas.Compile(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() tapas.Policy{tapas.NewBaseline, tapas.NewTAPAS} {
		got, err := cs.Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		want, err := tapas.Run(sc, mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled run differs from Run", got.Policy)
		}
	}
}

// TestRunCampaignMatchesGolden: a spec loaded and run through the facade
// reproduces the committed campaign golden byte for byte.
func TestRunCampaignMatchesGolden(t *testing.T) {
	spec, err := tapas.LoadScenarioSpec("examples/scenarios/slo-replay.json")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tapas.RunCampaign(spec, tapas.CampaignParams{Parallel: 2}, &sb); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("internal/scenario/testdata/golden/slo-replay.txt")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("report differs from the golden:\n%s", sb.String())
	}
}

// TestParseScenarioSpec: the "shards" field parses and changes nothing, and
// an unknown field is rejected.
func TestParseScenarioSpec(t *testing.T) {
	const spec = `{"name": "tiny", "layout": {"preset": "small"}, "duration": "10m"%s}`
	report := func(extra string) string {
		t.Helper()
		s, err := tapas.ParseScenarioSpec([]byte(fmt.Sprintf(spec, extra)))
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tapas.RunCampaign(s, tapas.CampaignParams{Parallel: 1}, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if plain, sharded := report(""), report(`, "shards": 4`); plain != sharded {
		t.Errorf("shards changed the report:\n%s\nvs\n%s", plain, sharded)
	}
	if _, err := tapas.ParseScenarioSpec([]byte(fmt.Sprintf(spec, `, "shard": 4`))); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestTransformsPublicAPI: a chain applied through ApplyTransforms leaves
// its input intact and replays exactly like the same chain set as
// Scenario.TraceTransforms.
func TestTransformsPublicAPI(t *testing.T) {
	sc := tapas.QuickScenario()
	wl, err := tapas.GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("examples/traces/scale-2x.json")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := tapas.ParseTransforms(data)
	if err != nil {
		t.Fatal(err)
	}
	var before, after strings.Builder
	if err := tapas.ExportTrace(&before, wl); err != nil {
		t.Fatal(err)
	}
	scaled, err := tapas.ApplyTransforms(chain, wl)
	if err != nil {
		t.Fatal(err)
	}
	if err := tapas.ExportTrace(&after, wl); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Error("ApplyTransforms mutated its input")
	}
	inline, pre := sc, sc
	inline.Trace, inline.TraceTransforms = wl, chain
	pre.Trace = scaled
	a, err := tapas.Run(inline, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tapas.Run(pre, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("pre-applied chain replays differently from Scenario.TraceTransforms")
	}
	if _, err := tapas.ParseTransforms([]byte(`[{"op": "bogus"}]`)); err == nil {
		t.Error("unknown transform op accepted")
	}
}

// TestImportAzureLLMCSV: the committed Azure-style fixture imports into a
// workload that replays on a fleet of the configured size.
func TestImportAzureLLMCSV(t *testing.T) {
	f, err := os.Open("examples/traces/azure-llm-sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := tapas.RealClusterScenario()
	servers := sc.Layout.Aisles * 2 * sc.Layout.RacksPerRow * sc.Layout.ServersPerRack
	wl, err := tapas.ImportAzureLLMCSV(f, tapas.AzureImportConfig{Servers: servers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's rows name three endpoints: chat, code and search.
	if len(wl.Endpoints) != 3 || len(wl.VMs) == 0 {
		t.Fatalf("imported %d endpoints and %d VMs, want 3 endpoints and some VMs", len(wl.Endpoints), len(wl.VMs))
	}
	sc.Trace = wl
	sc.Duration = 20 * time.Minute
	res, err := tapas.Run(sc, tapas.NewTAPAS())
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceRate() <= 0 {
		t.Errorf("replayed import served nothing (service rate %v)", res.ServiceRate())
	}
	if _, err := tapas.ImportAzureLLMCSV(strings.NewReader("timestamp,endpoint,prompt_tokens,output_tokens\n"), tapas.AzureImportConfig{}); err == nil {
		t.Error("import without a server count accepted")
	}
}

// TestRunExperimentsMatchesSequential: the fanned-out batch writes exactly
// the one-by-one reports, and a failing id leaves the writer untouched.
func TestRunExperimentsMatchesSequential(t *testing.T) {
	ids := []string{"table1", "fig1", "fig8"}
	p := tapas.ExperimentParams{Scale: 0.1, Seed: 42, Parallel: 2}
	var batch, seq strings.Builder
	if err := tapas.RunExperiments(ids, p, &batch); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := tapas.RunExperimentWith(id, tapas.ExperimentParams{Scale: 0.1, Seed: 42, Parallel: 1}, &seq); err != nil {
			t.Fatal(err)
		}
	}
	if batch.String() != seq.String() {
		t.Error("RunExperiments output differs from sequential runs")
	}
	var failed strings.Builder
	if err := tapas.RunExperiments([]string{"table1", "bogus"}, p, &failed); err == nil || failed.Len() != 0 {
		t.Errorf("failing batch: err %v, wrote %d bytes; want an error and no output", err, failed.Len())
	}
}
