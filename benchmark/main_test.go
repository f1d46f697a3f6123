package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/benchmark/result"
	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
)

// repoRoot is the repository root as seen from this package's directory.
const repoRoot = ".."

// TestBenchmarkJSONMatchesProgram pins BENCHMARK.json to what the program
// prints: the same workloads, and the same metrics with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, workloadNames())
	}
	var e2e, layers []metricDef
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range cfg.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program prints %v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer %v, program prints %v", layers, perLayer)
	}
}

// allPolicies is every policy name a spec accepts.
var allPolicies = []string{"baseline", "tapas", "place", "route", "config", "place,route", "place,config", "route,config", "slo", "slo-edf", "powergov", "powergov-energy"}

// TestTracedReportsMatchUntraced runs every spec policy name in binned and in
// request-level mode with and without the timing wrapper: the reports must be
// byte-identical, so the wrapper reproduces the engine's handling of every
// optional hook a policy may lack.
func TestTracedReportsMatchUntraced(t *testing.T) {
	examples, err := filepath.Abs(filepath.Join(repoRoot, "examples", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	pols, _ := json.Marshal(allPolicies)
	specs := map[string]string{
		"binned": `{"name": "binned", "layout": {"preset": "small"}, "duration": "30m", "start_offset": "13h",
			"workload": {"demand_scale": 1.3, "occupancy": 0.97},
			"failures": [{"kind": "power", "at": "10m", "duration": "10m"}, {"kind": "cooling", "at": "15m", "duration": "10m"}],
			"policies": ` + string(pols) + `}`,
		"request": `{"name": "request", "layout": {"preset": "small", "aisles": 2, "mix_gpu": "H100", "mix_fraction": 0.5},
			"duration": "8m", "tick": "1s",
			"workload": {"trace": "` + filepath.Join(examples, "power-loop.trace.csv") + `",
				"requests": "` + filepath.Join(examples, "slo-replay.requests.csv") + `",
				"transforms": [{"op": "demand_scale", "saas": 8}]},
			"report": {"metrics": ["ttft_p99_ms", "slo_attainment_pct", "requests_shed", "energy_per_token_j", "cap_events", "peak_power_kw"]},
			"policies": ` + string(pols) + `}`,
	}
	for mode, spec := range specs {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), mode+".json")
			if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
				t.Fatal(err)
			}
			w := &inProcess{specs: []specFile{{path: path}}, parallel: 1}
			b := &bench{}
			plain, err := w.op(b, 1, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := w.op(b, 1, nil, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(plain[0], traced[0]) {
				t.Fatalf("traced report differs:\n--- untraced ---\n%s--- traced ---\n%s", plain[0], traced[0])
			}
			v := layerValues(tr.spans)
			if runs := countSpans(tr.spans, "sim.run"); runs != len(allPolicies) {
				t.Errorf("%d sim.run spans, want one per policy (%d)", runs, len(allPolicies))
			}
			hook := "core.route.calls"
			if mode == "request" {
				hook = "core.route_request.calls"
				if v["core.admit.calls"] == 0 {
					t.Error("no admission calls traced for the slo policies")
				}
			}
			if v[hook] == 0 || v["core.place.calls"] == 0 || v["sim.tick.count"] == 0 {
				t.Errorf("hooks not traced: %s %v, place %v, ticks %v", hook, v[hook], v["core.place.calls"], v["sim.tick.count"])
			}
		})
	}
}

// TestWrapperAdmitsOnlyForAdmitters checks the wrapper offers admission
// exactly when the wrapped policy does: the engine consults an admitter
// instead of the router, so a faked one would change routing.
func TestWrapperAdmitsOnlyForAdmitters(t *testing.T) {
	for _, p := range []sim.Policy{core.NewBaseline(), core.NewFull(), core.NewSLO(false), core.NewPowerGov(true)} {
		_, inner := p.(sim.RequestAdmitter)
		_, wrapped := wrap(p, &runStats{}).(sim.RequestAdmitter)
		if inner != wrapped {
			t.Errorf("%s: admitter %v, wrapper admitter %v", p.Name(), inner, wrapped)
		}
	}
}

// TestWrapperMatchesEngineDefaults runs core.Baseline, which lacks every
// optional hook (Init, RouteRequest, QueueDiscipline, the tuners), in
// request-level mode with and without the wrapper. Every spec policy
// implements RouteRequest, so only this policy reaches the wrapper's
// "not implemented" paths.
func TestWrapperMatchesEngineDefaults(t *testing.T) {
	sp, err := scenario.Load(filepath.Join(repoRoot, "examples", "scenarios", "slo-policies.json"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sp.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := sim.Compile(c.Points[len(c.Points)-1].Scenario)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cs.Run(core.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	rs := &runStats{}
	wrapped, err := cs.Run(wrap(core.NewBaseline(), rs))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%+v", *plain), fmt.Sprintf("%+v", *wrapped); a != b {
		t.Errorf("wrapped Baseline result differs from the unwrapped one")
	}
	if rs.hooks[hRoute].Calls != 0 || rs.hooks[hConfigure].Calls == 0 {
		t.Errorf("request-level run counted %d Route and %d Configure calls", rs.hooks[hRoute].Calls, rs.hooks[hConfigure].Calls)
	}
}

func countSpans(spans []*span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// TestCorruptedGoldenFailsEveryOp runs the ablation workload against a
// corrupted golden: at the golden seed every op must fail and the run exit
// non-zero, while at another seed the golden is not consulted.
func TestCorruptedGoldenFailsEveryOp(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation workload")
	}
	root := t.TempDir()
	copyFile(t, filepath.Join(repoRoot, "examples", "scenarios", "fig20-ablation.json"), filepath.Join(root, "examples", "scenarios", "fig20-ablation.json"))
	golden := filepath.Join(root, "internal", "experiments", "testdata", "golden", "fig20.txt")
	copyFile(t, filepath.Join(repoRoot, "internal", "experiments", "testdata", "golden", "fig20.txt"), golden)
	g, _ := os.ReadFile(golden)
	if err := os.WriteFile(golden, bytes.Replace(g, []byte("0.98/0.86"), []byte("0.98/0.87"), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed     uint64
		wantCode int
		wantFrac float64
	}{{42, 1, 1}, {7, 0, 0}} {
		seed := strconv.FormatUint(tc.seed, 10)
		t.Run("seed"+seed, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.jsonl")
			var stdout, stderr bytes.Buffer
			code := run(root, []string{"--workload", "ablation", "--seed", seed, "--seconds", "0.5", "--trace", "0", "--out", out}, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.wantCode, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var line result.Line
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if line.Attempted < 1 || line.Correct != (tc.wantFrac == 0) {
				t.Errorf("result %+v", line)
			}
			runs, err := result.ReadSet(out)
			if err != nil || len(runs) != 1 {
				t.Fatalf("results file: %v, %d runs", err, len(runs))
			}
			if runs[0].FailedFrac != tc.wantFrac || runs[0].Seed != tc.seed {
				t.Errorf("recorded failed_frac %v seed %d, want %v", runs[0].FailedFrac, runs[0].Seed, tc.wantFrac)
			}
			if runs[0].Recorded.IsZero() || time.Since(runs[0].Recorded) > time.Hour || runs[0].Env.GoVersion == "" {
				t.Errorf("record lacks its time or environment: %+v", runs[0])
			}
		})
	}
}

// TestDaemonWorkload builds tapas-serve and runs the daemon workload briefly,
// untraced and traced, with both clients submitting at once.
func TestDaemonWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tapas-serve")
	}
	root := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(root, ".bench_build", "tapas-serve"), "github.com/tapas-sim/tapas/cmd/tapas-serve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tapas-serve: %v\n%s", err, out)
	}
	for _, name := range committedSpecs {
		copyFile(t, filepath.Join(repoRoot, "examples", "scenarios", name+".json"), filepath.Join(root, "examples", "scenarios", name+".json"))
		copyFile(t, filepath.Join(repoRoot, "internal", "scenario", "testdata", "golden", name+".txt"), filepath.Join(root, "internal", "scenario", "testdata", "golden", name+".txt"))
	}
	copyFile(t, filepath.Join(repoRoot, "examples", "scenarios", "pinned-small.trace.csv"), filepath.Join(root, "examples", "scenarios", "pinned-small.trace.csv"))
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		if code := run(root, []string{"--workload", "daemon", "--seconds", "1", "--trace", trace}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d; stderr:\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line result.Line
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		want := "op_p50_s"
		if trace == "1" {
			want = "serve.run_s"
		}
		if !line.Correct || line.Attempted < 4 || line.Metrics[want].Value <= 0 {
			t.Errorf("trace %s: result %+v", trace, line)
		}
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}
