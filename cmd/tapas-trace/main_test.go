package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tapas-sim/tapas/internal/scenario"
)

func TestRunModeErrors(t *testing.T) {
	cases := map[string]struct {
		args     []string
		wantCode int
		wantErr  string
	}{
		"no mode":          {nil, 2, "exactly one of -export, -transform, -import-azure, -stats is required"},
		"two modes":        {[]string{"-export", "a.csv", "-stats", "b.csv"}, 2, "exactly one of"},
		"unknown flag":     {[]string{"-bogus"}, 2, "flag provided but not defined"},
		"unknown preset":   {[]string{"-export", "a.csv", "-preset", "galactic"}, 2, `unknown preset "galactic"`},
		"spec plus preset": {[]string{"-export", "a.csv", "-spec", "s.json", "-preset", "quick"}, 2, "mutually exclusive"},
		"seed with spec":   {[]string{"-export", "a.csv", "-spec", "s.json", "-seed", "7"}, 2, "-seed conflicts with -spec"},
		"vms with stats":   {[]string{"-stats", "a.csv", "-vms", "b.csv"}, 2, "-vms does not apply to -stats"},
		"missing stats":    {[]string{"-stats", "definitely-missing.csv"}, 1, "definitely-missing.csv"},
		"transform no in":  {[]string{"-transform", "[]", "-out", "b.csv"}, 2, "-transform needs both -in"},
		"transform no out": {[]string{"-transform", "[]", "-in", "a.csv"}, 2, "-transform needs both -in"},
		"transform empty":  {[]string{"-transform", "[]", "-in", "a.csv", "-out", "b.csv"}, 2, "chain is empty"},
		"transform preset": {[]string{"-transform", "[]", "-in", "a.csv", "-out", "b.csv", "-preset", "quick"}, 2, "-preset does not apply to -transform"},
		"transform bad op": {[]string{"-transform", `[{"op":"warp"}]`, "-in", "a.csv", "-out", "b.csv"}, 1, `unknown op "warp"`},
		"azure no out":     {[]string{"-import-azure", "a.csv"}, 2, "-import-azure needs -out"},
		"azure missing":    {[]string{"-import-azure", "definitely-missing.csv", "-out", "b.csv"}, 1, "definitely-missing.csv"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var out, errOut strings.Builder
			code := run(tc.args, &out, &errOut)
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.wantErr) {
				t.Errorf("stderr %q does not contain %q", errOut.String(), tc.wantErr)
			}
		})
	}
}

// campaignReport runs a spec file's campaign as tapas-campaign does and
// returns its report.
func campaignReport(t *testing.T, path string) string {
	t.Helper()
	spec, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := spec.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(scenario.RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := res.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestExportStatsReplayPipeline drives the record/replay pipeline: record a
// quick preset workload (with the flat VM table pair), inspect it, then
// replay it through a spec that pins the recorded file.
func TestExportStatsReplayPipeline(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.csv")
	vmsPath := filepath.Join(dir, "t.vms.csv")

	var out, errOut strings.Builder
	code := run([]string{"-export", tracePath, "-vms", vmsPath, "-preset", "quick", "-seed", "42"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("export: exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "recorded") || !strings.Contains(errOut.String(), "flat VM table") {
		t.Errorf("export stderr missing summary: %q", errOut.String())
	}
	for _, p := range []string{tracePath, vmsPath} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("export did not write %s: %v", p, err)
		}
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-stats", tracePath}, &out, &errOut); code != 0 {
		t.Fatalf("stats: exit code %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"recorded fleet    80 servers", "VMs", "endpoints", "SaaS demand", "IaaS load"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}

	replaySpec := `{
	  "name": "replay-smoke",
	  "layout": {"preset": "small"},
	  "duration": "20m",
	  "workload": {"trace": "t.csv"},
	  "policies": ["baseline"],
	  "report": {"format": "csv"}
	}`
	specPath := filepath.Join(dir, "replay.json")
	if err := os.WriteFile(specPath, []byte(replaySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if report := campaignReport(t, specPath); !strings.HasPrefix(report, "spec,policy,") {
		t.Errorf("replay report missing CSV header:\n%s", report)
	}
}

// TestTransformReexportMatchesInSpecChain is the PR's acceptance criterion
// at the CLI layer: applying a chain with `tapas-trace -transform` and
// replaying the re-exported trace produces a campaign report byte-identical
// to replaying the original trace with the same chain in-spec.
func TestTransformReexportMatchesInSpecChain(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.csv")
	scaled := filepath.Join(dir, "scaled.csv")
	chain := `[{"op": "demand_scale", "factor": 1.5, "seed": 7}, {"op": "jitter", "sigma": "90s", "seed": 3}]`

	var out, errOut strings.Builder
	if code := run([]string{"-export", orig, "-preset", "quick", "-seed", "42"}, &out, &errOut); code != 0 {
		t.Fatalf("export: %s", errOut.String())
	}

	// CLI path: apply the chain, re-export as a standalone artifact.
	errOut.Reset()
	if code := run([]string{"-transform", chain, "-in", orig, "-out", scaled}, &out, &errOut); code != 0 {
		t.Fatalf("transform: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "applied 2-step chain") {
		t.Errorf("transform summary missing: %q", errOut.String())
	}

	reportCfg := `"duration": "20m",
	  "policies": ["baseline", "tapas"],
	  "report": {"format": "csv", "metrics": ["max_temp_c", "peak_power_kw", "energy_mwh",
	             "service_rate", "slo_violation_pct", "placement_rejects"]}`
	preSpec := filepath.Join(dir, "pre.json")
	inSpec := filepath.Join(dir, "in.json")
	if err := os.WriteFile(preSpec, []byte(`{
	  "name": "same", "layout": {"preset": "small"},
	  "workload": {"trace": "scaled.csv"}, `+reportCfg+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inSpec, []byte(`{
	  "name": "same", "layout": {"preset": "small"},
	  "workload": {"trace": "orig.csv", "transforms": `+chain+`}, `+reportCfg+`}`), 0o644); err != nil {
		t.Fatal(err)
	}

	pre, in := campaignReport(t, preSpec), campaignReport(t, inSpec)
	if pre != in {
		t.Errorf("re-exported trace and in-spec chain reports differ:\n--- re-exported ---\n%s--- in-spec ---\n%s", pre, in)
	}
}

// TestImportAzurePipeline drives the committed fixture end to end: import,
// archive, inspect.
func TestImportAzurePipeline(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "azure.trace.csv")
	fixture := filepath.Join("..", "..", "examples", "traces", "azure-llm-sample.csv")

	var out, errOut strings.Builder
	if code := run([]string{"-import-azure", fixture, "-out", outPath, "-servers", "40", "-seed", "5"}, &out, &errOut); code != 0 {
		t.Fatalf("import: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "imported 3 endpoints") {
		t.Errorf("import summary missing endpoint count: %q", errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-stats", outPath}, &out, &errOut); code != 0 {
		t.Fatalf("stats on import: %s", errOut.String())
	}
	for _, want := range []string{"recorded fleet    40 servers", "endpoints         3", "SaaS demand"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, out.String())
		}
	}
}

// TestExportFromSpec records the workload of a committed single-point spec
// and rejects sweeping specs, whose grid has no single workload to record.
func TestExportFromSpec(t *testing.T) {
	dir := t.TempDir()
	single := filepath.Join(dir, "single.json")
	spec := `{"name": "single", "layout": {"preset": "small"}, "duration": "10m"}`
	if err := os.WriteFile(single, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "t.csv")
	var out, errOut strings.Builder
	if code := run([]string{"-export", tracePath, "-spec", single}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	}

	sweeping := filepath.Join("..", "..", "examples", "scenarios", "heatwave-sweep.json")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-export", tracePath, "-spec", sweeping}, &out, &errOut); code != 2 {
		t.Fatalf("exit code %d, want 2 (stderr: %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "sweeps axes") {
		t.Errorf("stderr %q does not explain the sweep rejection", errOut.String())
	}
}

// TestRunExportTable drives runExport through every source and output
// option: specs (sweeping, replaying, missing), the three presets and an
// unknown one, the flat VM table, the request log and its rate scale, and
// unwritable outputs.
func TestRunExportTable(t *testing.T) {
	dir := t.TempDir()
	trace, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "pinned-small.trace.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "pinned.csv"), trace, 0o644); err != nil {
		t.Fatal(err)
	}
	replaying := filepath.Join(dir, "replaying.json")
	if err := os.WriteFile(replaying, []byte(`{"name": "replaying", "layout": {"preset": "small"},
	  "duration": "20m", "workload": {"trace": "pinned.csv"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badGrid := filepath.Join(dir, "bad-grid.json")
	if err := os.WriteFile(badGrid, []byte(`{"name": "bad-grid", "layout": {"preset": "small"},
	  "duration": "20m", "workload": {"trace": "missing.csv"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sweeping := filepath.Join("..", "..", "examples", "scenarios", "heatwave-sweep.json")
	out := filepath.Join(dir, "out.csv")
	vms := filepath.Join(dir, "out.vms.csv")
	reqs := filepath.Join(dir, "out.requests.csv")
	noDir := filepath.Join(dir, "no-such-dir", "x.csv")
	cases := []struct {
		name                string
		out, vms, spec, pre string
		reqs                string
		scale               float64
		wantCode            int
		wantErr             string
		wantFiles           []string
	}{
		{name: "spec with preset", out: out, spec: sweeping, pre: "quick", scale: 1, wantCode: 2, wantErr: "mutually exclusive"},
		{name: "sweeping spec", out: out, spec: sweeping, scale: 1, wantCode: 2, wantErr: "sweeps axes"},
		{name: "replaying spec", out: out, spec: replaying, scale: 1, wantCode: 2, wantErr: "already replays a recorded trace"},
		{name: "missing spec", out: out, spec: filepath.Join(dir, "missing.json"), scale: 1, wantCode: 1, wantErr: "missing.json"},
		{name: "spec with a missing trace", out: out, spec: badGrid, scale: 1, wantCode: 1, wantErr: "missing.csv"},
		{name: "default preset", out: out, scale: 1, wantErr: "recorded 73 VMs / 3 endpoints over 20m0s", wantFiles: []string{out}},
		{name: "preset quick", out: out, pre: "quick", scale: 1, wantErr: "over 20m0s", wantFiles: []string{out}},
		{name: "preset small", out: out, pre: "small", scale: 1, wantErr: "over 1h0m0s", wantFiles: []string{out}},
		{name: "preset large", out: out, pre: "large", scale: 1, wantErr: "10 endpoints over 168h0m0s", wantFiles: []string{out}},
		{name: "unknown preset", out: out, pre: "galactic", scale: 1, wantCode: 2, wantErr: `unknown preset "galactic" (known: quick, small, large)`},
		{name: "flat VM table", out: out, vms: vms, scale: 1, wantErr: "wrote flat VM table to " + vms, wantFiles: []string{out, vms}},
		{name: "request log", out: out, reqs: reqs, scale: 0.05, wantErr: "(rate scale 0.05) to " + reqs, wantFiles: []string{out, reqs}},
		{name: "request scale zero", out: out, reqs: reqs, scale: 0, wantCode: 2, wantErr: "-requests-scale 0 must be positive"},
		{name: "request scale negative", out: out, reqs: reqs, scale: -1, wantCode: 2, wantErr: "-requests-scale -1 must be positive"},
		{name: "unwritable trace", out: noDir, scale: 1, wantCode: 1, wantErr: "no-such-dir"},
		{name: "unwritable VM table", out: out, vms: noDir, scale: 1, wantCode: 1, wantErr: "no-such-dir"},
		{name: "unwritable request log", out: out, reqs: noDir, scale: 1, wantCode: 1, wantErr: "no-such-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []string{out, vms, reqs} {
				os.Remove(p)
			}
			var errOut strings.Builder
			code := runExport(tc.out, tc.vms, tc.spec, tc.pre, 42, tc.reqs, tc.scale, &errOut)
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.wantErr) {
				t.Errorf("stderr %q does not contain %q", errOut.String(), tc.wantErr)
			}
			for _, p := range tc.wantFiles {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("%s not written (%v)", p, err)
				}
			}
		})
	}
}

// TestRunTransformTable drives runTransform: missing paths, an inline chain
// against a chain file, an empty chain, parse and load errors, a missing
// input trace and an unwritable output.
func TestRunTransformTable(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join("..", "..", "examples", "scenarios", "pinned-small.trace.csv")
	chainFile := filepath.Join("..", "..", "examples", "traces", "scale-2x.json")
	out := filepath.Join(dir, "out.csv")
	cases := []struct {
		name, chain, in, out string
		wantCode             int
		wantErr              string
	}{
		{name: "missing -in", chain: "[]", out: out, wantCode: 2, wantErr: "needs both -in"},
		{name: "missing -out", chain: "[]", in: in, wantCode: 2, wantErr: "needs both -in"},
		{name: "inline chain", chain: ` [{"op": "demand_scale", "factor": 2, "seed": 7}]`, in: in, out: out, wantErr: "applied 1-step chain"},
		{name: "chain file", chain: chainFile, in: in, out: out, wantErr: "applied 2-step chain"},
		{name: "empty chain", chain: "[]", in: in, out: out, wantCode: 2, wantErr: "chain is empty"},
		{name: "parse error", chain: `[{"op": "demand_scale", "factor": }]`, in: in, out: out, wantCode: 1, wantErr: "tapas-trace:"},
		{name: "missing chain file", chain: filepath.Join(dir, "chain.json"), in: in, out: out, wantCode: 1, wantErr: "chain.json"},
		{name: "missing splice overlay", chain: `[{"op": "splice", "trace": "no-such-overlay.csv"}]`, in: in, out: out, wantCode: 1, wantErr: "no-such-overlay.csv"},
		{name: "missing input trace", chain: chainFile, in: filepath.Join(dir, "none.csv"), out: out, wantCode: 1, wantErr: "none.csv"},
		{name: "unwritable output", chain: chainFile, in: in, out: filepath.Join(dir, "no-such-dir", "x.csv"), wantCode: 1, wantErr: "no-such-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			os.Remove(out)
			var errOut strings.Builder
			code := runTransform(tc.chain, tc.in, tc.out, &errOut)
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.wantCode, errOut.String())
			}
			if !strings.Contains(errOut.String(), tc.wantErr) {
				t.Errorf("stderr %q does not contain %q", errOut.String(), tc.wantErr)
			}
			if _, err := os.Stat(out); (err == nil) != (tc.wantCode == 0) {
				t.Errorf("output written = %v, want %v", err == nil, tc.wantCode == 0)
			}
		})
	}
}
