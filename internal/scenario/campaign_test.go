package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden campaign report files")

func loadExample(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := Load(filepath.Join("..", "..", "examples", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runCampaign(t *testing.T, s *Spec, parallel int) string {
	t.Helper()
	c, err := s.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestFig20SpecMatchesExperimentGolden ties the committed fig20-ablation
// example, which the benchmark's ablation workload runs, to the Fig. 20
// runner's golden: the example's grid must reproduce the golden rows
// byte-for-byte.
func TestFig20SpecMatchesExperimentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("40-run campaign skipped in -short")
	}
	got := runCampaign(t, loadExample(t, "fig20-ablation.json"), 0)
	want, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", "fig20.txt"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	// The golden report is "== header ==", the two grid header lines, eight
	// policy rows, and a trailing paper note; the campaign reproduces the
	// grid (headers + rows) byte-identically.
	wantGrid := wantLines[1 : len(wantLines)-1]
	if len(gotLines) < 1+len(wantGrid) {
		t.Fatalf("campaign report has %d lines, need %d:\n%s", len(gotLines), 1+len(wantGrid), got)
	}
	gotGrid := gotLines[1 : 1+len(wantGrid)]
	for i := range wantGrid {
		if gotGrid[i] != wantGrid[i] {
			t.Errorf("row %d deviates from fig20 golden:\ngot:  %q\nwant: %q", i, gotGrid[i], wantGrid[i])
		}
	}
}

// TestCampaignGoldenReports pins the committed example campaigns that no
// paper figure runs byte-for-byte, so spec files and report rendering
// cannot rot silently.
func TestCampaignGoldenReports(t *testing.T) {
	for _, name := range []string{"hetero-fleet", "heatwave-sweep", "rolling-emergencies", "replay-pinned", "replay-scaled", "slo-replay", "slo-policies", "power-loop"} {
		name := name
		t.Run(name, func(t *testing.T) {
			got := runCampaign(t, loadExample(t, name+".json"), 0)
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s deviates from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestCampaignDeterministicAcrossWorkers proves reports are byte-identical
// from sequential to saturated pools.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	// replay-pinned covers the replay pipeline: recorded workloads shared
	// read-only across the pool must stay byte-deterministic too.
	// replay-scaled additionally pushes every grid point through the
	// replay-time transform chain (same chain + seed ⇒ byte-identical
	// output at any worker count).
	// slo-policies adds admission shedding and EDF queues on top; shedding
	// decisions must be deterministic across the pool too.
	// power-loop adds closed-loop per-endpoint capping, energy integration,
	// and energy-aware routing on a heterogeneous fleet.
	for _, name := range []string{"heatwave-sweep", "replay-pinned", "replay-scaled", "slo-replay", "slo-policies", "power-loop"} {
		s := loadExample(t, name+".json")
		seq := runCampaign(t, s, 1)
		par := runCampaign(t, s, 8)
		if seq != par {
			t.Errorf("%s: report differs between -parallel 1 and 8:\n--- seq ---\n%s--- par ---\n%s", name, seq, par)
		}
	}
}

// TestCampaignCSVAndJSON smoke-checks the machine-readable formats.
func TestCampaignCSVAndJSON(t *testing.T) {
	s := loadExample(t, "rolling-emergencies.json")
	s.Report.Format = "csv"
	csvOut := runCampaign(t, s, 0)
	lines := strings.Split(strings.TrimRight(csvOut, "\n"), "\n")
	if want := 1 + 3; len(lines) != want { // header + 3 policies × 1 point
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), want, csvOut)
	}
	if !strings.HasPrefix(lines[0], "spec,policy,") {
		t.Errorf("CSV header = %q", lines[0])
	}

	s.Report.Format = "json"
	var rep struct {
		Name     string   `json:"name"`
		Policies []string `json:"policies"`
		Runs     []struct {
			Policy  string             `json:"policy"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(runCampaign(t, s, 0)), &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if rep.Name != "rolling-emergencies" || len(rep.Runs) != 3 {
		t.Errorf("JSON report name=%q runs=%d", rep.Name, len(rep.Runs))
	}
	for _, run := range rep.Runs {
		if _, ok := run.Metrics["service_rate"]; !ok {
			t.Errorf("run %s missing service_rate metric", run.Policy)
		}
	}
}

// TestHeteroCampaignOrdersGenerations checks the flagship configuration no
// paper figure runs: under the oblivious Baseline, peak power
// rises monotonically with the H100 share of the fleet.
func TestHeteroCampaignOrdersGenerations(t *testing.T) {
	s := loadExample(t, "hetero-fleet.json")
	c, err := s.Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Runs[0] // baseline policy row
	// The all-H100 fleet draws well above the all-A100 one; the mixed point
	// sits in between or at the A100 peak (the peak row can remain an A100
	// row when H100 SaaS instances serve the same demand less busily).
	if base[2].PeakPower() <= base[0].PeakPower() {
		t.Errorf("all-H100 peak %.0f W not above all-A100 peak %.0f W",
			base[2].PeakPower(), base[0].PeakPower())
	}
	if base[1].PeakPower() < base[0].PeakPower() || base[1].PeakPower() > base[2].PeakPower() {
		t.Errorf("mixed-fleet peak %.0f W outside [%.0f, %.0f] W",
			base[1].PeakPower(), base[0].PeakPower(), base[2].PeakPower())
	}
}
