package regress

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestMAE(t *testing.T) {
	if got := MAE([]float64{1, 2, 3}, []float64{1, 4, 1}); math.Abs(got-4.0/3) > 1e-12 {
		t.Errorf("MAE = %v, want 4/3", got)
	}
	if !math.IsNaN(MAE(nil, nil)) {
		t.Error("MAE(nil) should be NaN")
	}
	if !math.IsNaN(MAE([]float64{1}, []float64{1, 2})) {
		t.Error("MAE mismatched lengths should be NaN")
	}
}

// TestRMSEGreaterOrEqualMAEProperty checks MAE against the root-mean-square
// error, as MAE² ≤ mean squared error (Jensen's inequality).
func TestRMSEGreaterOrEqualMAEProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	f := func(_ uint64) bool {
		n := int(rng.Uint64()%20) + 1
		pred := make([]float64, n)
		act := make([]float64, n)
		mse := 0.0
		for i := range pred {
			pred[i] = rng.Float64() * 100
			act[i] = rng.Float64() * 100
			mse += (pred[i] - act[i]) * (pred[i] - act[i])
		}
		mse /= float64(n)
		mae := MAE(pred, act)
		return mae*mae <= mse*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", mean)
	}
	if math.Abs(std-2) > 1e-12 {
		t.Errorf("std = %v, want 2", std)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	f := func(_ uint64) bool {
		n := int(rng.Uint64()%50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 1000
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSortFloat64sMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 50; trial++ {
		n := int(rng.Uint64() % 200)
		a := make([]float64, n)
		for i := range a {
			a[i] = rng.Float64()*200 - 100
		}
		b := append([]float64(nil), a...)
		sortFloat64s(a)
		sort.Float64s(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: sort mismatch at %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}
