package regress

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// solveLinear solves the square system A·x = b with the elimination every
// Design runs, clobbering A and overwriting b with x. The TestSolveLinear
// tests drive eliminate and solve on square systems directly, because no
// design reaches eliminate's singular-pivot check or its tie-breaking rule:
// the ridge keeps every pivot of XᵀX far above the threshold and apart.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	e, err := eliminate(a)
	if err != nil {
		return nil, err
	}
	e.solve(b)
	return b, nil
}

func TestSolveLinearIdentity(t *testing.T) {
	a := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	b := []float64{3, -2, 7}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, -2, 7}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearKnownSystem(t *testing.T) {
	// 2x + y = 5; x - y = 1  →  x=2, y=1
	a := [][]float64{{2, 1}, {1, -1}}
	b := []float64{5, 1}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("got %v, want [2 1]", x)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{3, 4}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-4) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("got %v, want [4 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solveLinear(a, b); err == nil {
		t.Fatal("expected singular error")
	}
}

// Property: for random well-conditioned systems, A·x ≈ b after solving.
func TestSolveLinearResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint64) bool {
		n := int(seed%5) + 2
		a := make([][]float64, n)
		orig := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			orig[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = rng.Float64()*4 - 2
			}
			a[i][i] += float64(n) // diagonal dominance ⇒ well-conditioned
			copy(orig[i], a[i])
		}
		b := make([]float64, n)
		origB := make([]float64, n)
		for i := range b {
			b[i] = rng.Float64()*10 - 5
		}
		copy(origB, b)
		x, err := solveLinear(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += orig[i][j] * x[j]
			}
			if math.Abs(sum-origB[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLeastSquaresExactRecovery(t *testing.T) {
	// y = 3 + 2a − b exactly; least squares must recover the weights.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{1, a, b})
			y = append(y, 3+2*a-b)
		}
	}
	w, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i := range want {
		if math.Abs(w[i]-want[i]) > 1e-6 {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	x := [][]float64{{1, 2, 3}}
	y := []float64{1}
	if _, err := LeastSquares(x, y); err == nil {
		t.Fatal("expected insufficient-data error")
	}
}

func TestLeastSquaresRagged(t *testing.T) {
	x := [][]float64{{1, 2}, {1}}
	y := []float64{1, 2}
	if _, err := LeastSquares(x, y); err == nil {
		t.Fatal("expected ragged-matrix error")
	}
}
