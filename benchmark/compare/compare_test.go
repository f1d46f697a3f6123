package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/benchmark/result"
)

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "sim.cache.hit_ratio", Better: "higher", Bound: 0.1}
	old := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		old, new     []float64
		m            metricSpec
		moreFailures bool
		want         string
	}{
		{"faster in every pair", old, scaled(old, 0.9), lower, false, gain},
		{"gain needs no more failed ops", old, scaled(old, 0.9), lower, true, unchanged},
		{"9 of 10 pairs is enough", old, append(scaled(old[:9], 0.9), 1.5), lower, false, gain},
		{"8 of 10 pairs is not, and ties count for neither", old, append(scaled(old[:8], 0.9), old[8:]...), lower, false, unchanged},
		{"wins inside the old spread are no gain", old, scaled(old, 0.995), lower, false, unchanged},
		{"worse within the bound", old, scaled(old, 1.08), lower, false, unchanged},
		{"worse beyond the bound", old, scaled(old, 1.12), lower, false, regression},
		{"higher is better: a drop is a regression", old, scaled(old, 0.85), higher, false, regression},
		{"higher is better: a rise is a gain", old, scaled(old, 1.2), higher, false, gain},
		{"spread wider than the bound", []float64{1, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1}, scaled(old, 1.2), lower, false, unresolved},
		{"no old runs", nil, old, lower, false, noBaseline},
		{"wide spread but every new run better", []float64{2, 4, 2.2, 3.8, 2.4, 3.6, 2.1, 3.9, 2.3, 3.7}, scaled(old, 1.9), lower, false, unchanged},
		{"wide spread but every new run worse beyond the bound", []float64{1, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1}, scaled(old, 2), lower, false, regression},
		{"higher is better: wide spread, every new run worse", []float64{1, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1}, scaled(old, 0.5), higher, false, regression},
		{"wide spread, every new run worse but within the bound", old, []float64{1.03, 1.2, 1.03, 1.2, 1.03, 1.2, 1.03, 1.2, 1.03, 1.03}, lower, false, unresolved},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge(tc.old, tc.new, tc.m, tc.moreFailures).verdict; got != tc.want {
				t.Errorf("verdict %s, want %s", got, tc.want)
			}
		})
	}
}

// TestNewestSetByRecordedTime covers the trap an earlier gate fell into:
// sorted by name, a "7" suffix comes after a "10" suffix, yet the set
// numbered 10 is newer.
func TestNewestSetByRecordedTime(t *testing.T) {
	at := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name  string
		files map[string]time.Time
		want  string
	}{
		{"name order lies", map[string]time.Time{"set_7.jsonl": at, "set_10.jsonl": at.Add(3 * time.Hour)}, "set_10.jsonl"},
		{"name order agrees", map[string]time.Time{"set_7.jsonl": at.Add(3 * time.Hour), "set_10.jsonl": at}, "set_7.jsonl"},
		{"dates in names lie", map[string]time.Time{"20260901.jsonl": at, "20260801.jsonl": at.Add(time.Hour)}, "20260801.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, rec := range tc.files {
				for i := 0; i < 2; i++ {
					r := result.Run{Workload: "ablation", Recorded: rec.Add(time.Duration(i) * time.Minute)}
					if err := result.Append(filepath.Join(dir, name), r); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, err := newestSet(dir)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(got) != tc.want {
				t.Errorf("baseline %s, want %s", filepath.Base(got), tc.want)
			}
		})
	}
}

// TestCompareExitsOnRegression runs the tool end to end on two small sets.
func TestCompareExitsOnRegression(t *testing.T) {
	dir := t.TempDir()
	at := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	write := func(name string, p50 float64, failed int) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			v := p50 * (1 + 0.001*float64(i%3))
			r := result.Run{
				Line:     result.Line{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]result.Metric{"op_p50_s": {Value: v, Unit: "s"}}},
				Workload: "ablation", Seed: uint64(42 + i), Recorded: at.Add(time.Duration(i) * time.Minute),
			}
			if err := result.Append(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	cfg := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(cfg, []byte(`{"end_to_end": [{"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old := write("old.jsonl", 1.0, 0)
	for _, tc := range []struct {
		name, newName string
		p50           float64
		failed        int
		code          int
		verdict       string
	}{
		{"faster", "fast.jsonl", 0.8, 0, 0, gain},
		{"slower", "slow.jsonl", 1.3, 0, 1, regression},
		{"failed ops", "broken.jsonl", 1.0, 1, 1, unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run([]string{"-config", cfg, "-old", old, "-new", write(tc.newName, tc.p50, tc.failed)}, &out, &errb)
			if code != tc.code || !strings.Contains(out.String(), tc.verdict) {
				t.Errorf("exit %d (want %d), output:\n%s%s", code, tc.code, out.String(), errb.String())
			}
		})
	}
}

// TestSameSeconds: runs that measured for different times are not compared.
func TestSameSeconds(t *testing.T) {
	runs := func(seconds ...float64) []result.Run {
		var rs []result.Run
		for _, s := range seconds {
			rs = append(rs, result.Run{Seconds: s})
		}
		return rs
	}
	for _, tc := range []struct {
		name     string
		old, new []result.Run
		ok       bool
	}{
		{"all alike", runs(25, 25), runs(25), true},
		{"sides differ", runs(25, 25), runs(10), false},
		{"old set mixed", runs(25, 10), runs(25), false},
		{"empty old set", nil, runs(25, 25), true},
	} {
		if err := sameSeconds(tc.old, tc.new); (err == nil) != tc.ok {
			t.Errorf("%s: sameSeconds = %v", tc.name, err)
		}
	}
}
