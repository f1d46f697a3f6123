package experiments

import (
	"strings"
	"testing"
)

// TestAllExperimentsRunAtQuickScale smoke-tests every registered experiment:
// it must run without error and produce non-empty output.
func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	p := QuickParams()
	for _, spec := range All {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			if testing.Short() && (spec.ID == "fig20" || spec.ID == "fig21") {
				t.Skip("multi-run sweep skipped in -short")
			}
			rep, err := spec.Run(p)
			if err != nil {
				t.Fatalf("%s failed: %v", spec.ID, err)
			}
			if len(rep.Lines) == 0 {
				t.Fatalf("%s produced no output", spec.ID)
			}
			var sb strings.Builder
			if _, err := rep.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), spec.ID) {
				t.Error("report header missing experiment ID")
			}
		})
	}
}

// TestParallelReportsDeterministic pins the fan-out contract: multi-run
// experiments produce byte-identical reports whether their independent runs
// execute sequentially or on a worker pool. The campaigns of fig18–fig21
// and table2 share one compiled scenario per grid point across the pool, so
// this also pins that the shared read-only artifacts cannot skew results.
func TestParallelReportsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep skipped in -short")
	}
	for _, id := range []string{"fig11", "fig18", "fig19", "fig20", "fig21", "table2"} {
		spec, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		render := func(parallel int) string {
			p := QuickParams()
			p.Parallel = parallel
			rep, err := spec.Run(p)
			if err != nil {
				t.Fatalf("%s (parallel=%d) failed: %v", id, parallel, err)
			}
			var sb strings.Builder
			if _, err := rep.WriteTo(&sb); err != nil {
				t.Fatal(err)
			}
			return sb.String()
		}
		if seq, par := render(1), render(4); seq != par {
			t.Errorf("%s report differs between parallel=1 and parallel=4:\n--- sequential ---\n%s--- parallel ---\n%s", id, seq, par)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("fig19"); !ok {
		t.Error("fig19 must be registered")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown ID must not resolve")
	}
	if len(All) != 22 {
		t.Errorf("registered experiments = %d, want 22 (Table 1–2, Figs. 1–16, 18–21)", len(All))
	}
}

// TestFig19Shape verifies the headline numbers hold at quick scale: TAPAS
// beats Baseline on both temperature and power.
func TestFig19Shape(t *testing.T) {
	rep, err := Fig19(QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "max temperature") || !strings.Contains(joined, "peak row power") {
		t.Fatalf("missing summary lines:\n%s", joined)
	}
	for _, line := range rep.Lines {
		if strings.HasPrefix(line, "max temperature") || strings.HasPrefix(line, "peak row power") {
			if strings.Contains(line, "−-") || strings.Contains(line, "(-") {
				t.Errorf("reduction negative (TAPAS lost): %s", line)
			}
		}
	}
}

// TestTable1Directions checks the direction arrows against the paper.
func TestTable1Directions(t *testing.T) {
	rep, err := Table1(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][4]string{
		"Model size":   {"↑", "↓", "↓", "↓"},
		"Quantization": {"↑", "↓", "↓", "↓"},
		"Parallelism":  {"↓", "↑", "↓", "−"},
		"Frequency":    {"↓", "↓", "↓", "−"},
		"Batch size":   {"↓", "↓", "↓", "−"},
	}
	for prefix, dirs := range want {
		found := false
		for _, line := range rep.Lines {
			if strings.HasPrefix(line, prefix) {
				found = true
				for i, label := range []string{"perf", "temp", "power", "quality"} {
					token := label + " " + dirs[i]
					if !strings.Contains(line, token) {
						t.Errorf("%s: want %q in %q", prefix, token, line)
					}
				}
			}
		}
		if !found {
			t.Errorf("no Table 1 row starting with %q", prefix)
		}
	}
}

// TestFig14AllocsPerRun pins the allocation budget of the template
// experiment. Fig14 builds 128 hour-of-week templates; before the flat
// bucket carving in power.buildTemplate (plus in-place percentiles and the
// reused series scratch here) it cost ~151k allocations per run — the worst
// in the benchmark suite by 20×. The budget has ~4× headroom over the
// current ~570 so incidental drift passes, but an accidental return to
// per-bucket growth fails loudly.
func TestFig14AllocsPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second allocation measurement skipped in -short")
	}
	p := QuickParams()
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Fig14(p); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2500
	if allocs > budget {
		t.Errorf("Fig14 allocated %.0f times per run, budget %d", allocs, budget)
	}
}
