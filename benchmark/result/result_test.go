package result

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// TestQuartilesMatchPython pins Quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{0.5, 0.7}, 0.45, 0.6, 0.75},
		{[]float64{3.1, 2.9, 3.3, 3.0, 3.2, 2.8, 3.05, 3.15, 2.95, 3.25}, 2.9375, 3.075, 3.2125},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, m, q3 := Quartiles(tc.xs)
		for _, p := range [][2]float64{{q1, tc.q1}, {m, tc.m}, {q3, tc.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
				break
			}
		}
	}
}

func TestAppendReadSetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "set.jsonl")
	at := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		r := Run{Line: Line{Correct: true, Attempted: 3, Metrics: map[string]Metric{"op_p50_s": {Value: float64(i), Unit: "s"}}},
			Workload: "ablation", Seed: uint64(42 + i), Recorded: at.Add(time.Duration(i) * time.Minute)}
		if err := Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := ReadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[1].Seed != 43 || runs[1].Metrics["op_p50_s"].Value != 1 || !runs[1].Recorded.Equal(at.Add(time.Minute)) {
		t.Errorf("round trip gave %+v", runs)
	}
}
