package regress

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPolyEval(t *testing.T) {
	p := Poly{Coeffs: []float64{1, -2, 3}} // 1 − 2x + 3x²
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1, 2},
		{2, 9},
		{-1, 6},
	}
	for _, c := range cases {
		if got := p.Eval(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPolyEvalEmpty(t *testing.T) {
	var p Poly
	if got := p.Eval(5); got != 0 {
		t.Errorf("empty poly Eval = %v, want 0", got)
	}
}

func TestFitPolyExactRecovery(t *testing.T) {
	// Sample y = 2 − x + 0.5x² and recover coefficients.
	var xs, ys []float64
	for x := -5.0; x <= 5; x += 0.5 {
		xs = append(xs, x)
		ys = append(ys, 2-x+0.5*x*x)
	}
	p, err := FitPoly(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -1, 0.5}
	for i := range want {
		if math.Abs(p.Coeffs[i]-want[i]) > 1e-6 {
			t.Errorf("coeff[%d] = %v, want %v", i, p.Coeffs[i], want[i])
		}
	}
}

func TestFitPolyDegreeZero(t *testing.T) {
	p, err := FitPoly([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Coeffs[0]-6) > 1e-6 {
		t.Errorf("constant fit = %v, want mean 6", p.Coeffs[0])
	}
}

func TestFitPolyErrors(t *testing.T) {
	if _, err := FitPoly([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := FitPoly([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("expected negative-degree error")
	}
	if _, err := FitPoly([]float64{1}, []float64{1}, 3); err == nil {
		t.Error("expected insufficient-data error")
	}
}

// Property: fitting noise-free samples of a random quadratic recovers it to
// within numerical tolerance, evaluated at held-out points.
func TestFitPolyRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	f := func(_ uint64) bool {
		c0 := rng.Float64()*10 - 5
		c1 := rng.Float64()*4 - 2
		c2 := rng.Float64()*2 - 1
		truth := Poly{Coeffs: []float64{c0, c1, c2}}
		var xs, ys []float64
		for x := -3.0; x <= 3; x += 0.25 {
			xs = append(xs, x)
			ys = append(ys, truth.Eval(x))
		}
		fit, err := FitPoly(xs, ys, 2)
		if err != nil {
			return false
		}
		for x := -2.5; x <= 2.5; x += 0.7 {
			if math.Abs(fit.Eval(x)-truth.Eval(x)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinearEvalAndFit(t *testing.T) {
	var feats [][]float64
	var ys []float64
	for a := 0.0; a < 4; a++ {
		for b := 0.0; b < 4; b++ {
			feats = append(feats, []float64{1, a, b})
			ys = append(ys, 10+0.5*a-2*b)
		}
	}
	m, err := FitLinear(feats, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eval([]float64{1, 2, 1}); math.Abs(got-9) > 1e-6 {
		t.Errorf("Eval = %v, want 9", got)
	}
}
