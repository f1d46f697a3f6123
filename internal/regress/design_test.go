package regress

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// oracleSolveLinear, oracleLeastSquares and oracleFitSurface are the
// solvers as they were before Design, kept verbatim as the reference: each
// system eliminated together with its right-hand side.
func oracleSolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, errors.New("bad system dimensions")
	}
	for _, row := range a {
		if len(row) != n {
			return nil, errors.New("non-square matrix")
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

func oracleLeastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 || len(y) != m {
		return nil, errors.New("bad design dimensions")
	}
	p := len(x[0])
	if m < p {
		return nil, ErrInsufficientData
	}
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return nil, errors.New("ragged design matrix")
		}
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	const ridge = 1e-9
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += ridge * (1 + xtx[i][i])
	}
	return oracleSolveLinear(xtx, xty)
}

func oracleFitSurface(x, y, z []float64, knots []float64) (Surface, error) {
	nseg := len(knots) + 1
	segF := make([][][]float64, nseg)
	segZ := make([][]float64, nseg)
	for i, xi := range x {
		s := sort.SearchFloat64s(knots, xi)
		segF[s] = append(segF[s], []float64{1, xi, xi * xi, y[i]})
		segZ[s] = append(segZ[s], z[i])
	}
	pieces := make([]Linear, nseg)
	fitted := make([]bool, nseg)
	anyFit := false
	for s := 0; s < nseg; s++ {
		if len(segF[s]) >= 8 { // 4 params, demand 2× samples for stability
			w, err := oracleLeastSquares(segF[s], segZ[s])
			if err == nil {
				pieces[s], fitted[s] = Linear{Weights: w}, true
				anyFit = true
			}
		}
	}
	if !anyFit {
		return Surface{}, ErrInsufficientData
	}
	for s := 1; s < nseg; s++ {
		if !fitted[s] && fitted[s-1] {
			pieces[s], fitted[s] = pieces[s-1], true
		}
	}
	for s := nseg - 2; s >= 0; s-- {
		if !fitted[s] && fitted[s+1] {
			pieces[s], fitted[s] = pieces[s+1], true
		}
	}
	return Surface{Knots: append([]float64(nil), knots...), Pieces: pieces}, nil
}

// hostileValue draws a value that stresses the arithmetic: exact zeros of
// either sign, infinities, NaN, tiny and huge magnitudes, or an ordinary
// number.
func hostileValue(rng *rand.Rand) float64 {
	switch rng.IntN(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Inf(1 - 2*rng.IntN(2))
	case 3:
		return math.NaN()
	case 4:
		return (rng.Float64() - 0.5) * 1e-300
	case 5:
		return (rng.Float64() - 0.5) * 1e200
	default:
		return rng.NormFloat64() * 10
	}
}

// randomDesign draws an m×p design with exact zeros, repeated rows and,
// when mirror is set, each row followed by its mirror image (every column
// but the first negated), which makes the first column orthogonal to the
// others, so elimination meets zero factors.
func randomDesign(rng *rand.Rand, m, p int, mirror bool) [][]float64 {
	var x [][]float64
	for len(x) < m {
		row := make([]float64, p)
		for j := range row {
			switch rng.IntN(5) {
			case 0: // exact zero
			case 1:
				row[j] = float64(rng.IntN(5) - 2)
			default:
				row[j] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(7)-3))
			}
		}
		if mirror {
			row[0] = 1
		}
		x = append(x, row)
		if rng.IntN(6) == 0 && len(x) < m {
			x = append(x, append([]float64(nil), row...))
		}
		if mirror && len(x) < m {
			neg := make([]float64, p)
			neg[0] = 1
			for j := 1; j < p; j++ {
				neg[j] = -row[j]
			}
			x = append(x, neg)
		}
	}
	return x
}

// sameBits compares by math.Float64bits, except that any two NaNs match:
// which operand's payload a NaN result carries is up to the instruction
// order the compiler picks.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func cloneMatrix(a [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i, row := range a {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// TestSolveLinearMatchesOracle compares eliminate and solve with the
// pre-Design solver by float bits on random systems with exact zeros (zero
// factors), pivot ties in magnitude, singular columns, and right-hand sides
// holding signed zeros, infinities and NaN. It is the only test whose
// systems reach the tie-breaking rule and the singular-pivot check.
func TestSolveLinearMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.IntN(6)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				if rng.IntN(3) > 0 {
					a[i][j] = rng.NormFloat64() * 4
				}
			}
		}
		if n > 1 && rng.IntN(3) == 0 { // a pivot tie in magnitude
			c := rng.IntN(n - 1)
			r := c + 1 + rng.IntN(n-c-1)
			a[r][c] = -a[c][c]
		}
		if rng.IntN(10) == 0 { // a column too small to pivot on
			c := rng.IntN(n)
			for i := range a {
				a[i][c] = 1e-13 * rng.Float64()
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = hostileValue(rng)
		}
		wantA, wantB := cloneMatrix(a), append([]float64(nil), b...)
		want, wantErr := oracleSolveLinear(wantA, wantB)
		got, err := solveLinear(a, b)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("trial %d: err = %v, oracle %v", trial, err, wantErr)
		}
		if err == nil && !sameBits(got, want) {
			t.Fatalf("trial %d: x = %v, oracle %v\nA = %v", trial, got, want, wantA)
		}
	}
}

// TestDesignMatchesLeastSquaresOracle checks that Design.Solve and
// LeastSquares equal the pre-Design least squares by float bits, over random
// designs (exact zeros, repeated rows, orthogonal columns that zero the
// elimination factors) and hostile targets, several targets per design.
func TestDesignMatchesLeastSquaresOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 1500; trial++ {
		p := 1 + rng.IntN(5)
		m := p + rng.IntN(3*p+2)
		x := randomDesign(rng, m, p, rng.IntN(2) == 0)
		d, derr := NewDesign(x)
		for k := 0; k < 4; k++ {
			y := make([]float64, m)
			for i := range y {
				if k == 0 {
					y[i] = rng.NormFloat64() * 50
				} else {
					y[i] = hostileValue(rng)
				}
			}
			want, wantErr := oracleLeastSquares(x, y)
			got, err := LeastSquares(x, y)
			if (err == nil) != (wantErr == nil) || (derr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d: LeastSquares err = %v, NewDesign err = %v, oracle %v", trial, err, derr, wantErr)
			}
			if err != nil {
				continue
			}
			if !sameBits(got, want) {
				t.Fatalf("trial %d target %d: LeastSquares = %v, oracle %v\nX = %v\ny = %v", trial, k, got, want, x, y)
			}
			w := make([]float64, p)
			for i := range w {
				w[i] = math.NaN() // Solve must not read what w held
			}
			d.Solve(w, y)
			if !sameBits(w, want) {
				t.Fatalf("trial %d target %d: Design.Solve = %v, oracle %v", trial, k, w, want)
			}
		}
	}
}

// TestFitSurfaceMatchesOracle checks FitSurface, and so SurfaceDesign.Fit,
// against the pre-Design surface fit by float bits, on random samples whose
// segments range from empty through fewer than 8 rows (inherited from a
// neighbour) to well filled, with unsorted sample order and repeated knots.
func TestFitSurfaceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 500; trial++ {
		knots := []float64{15, 25}
		switch rng.IntN(4) {
		case 0:
			knots = nil
		case 1:
			knots = []float64{5, 15, 15, 30}
		}
		n := rng.IntN(40)
		lo, hi := rng.Float64()*40-5, rng.Float64()*40-5
		if lo > hi {
			lo, hi = hi, lo
		}
		x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = lo + (hi-lo)*rng.Float64()
			if rng.IntN(4) == 0 {
				x[i] = math.Round(x[i]) // repeated sample points
			}
			y[i] = rng.Float64()
			z[i] = 18 + 0.3*x[i] + 2*y[i] + rng.NormFloat64()*0.2
			if rng.IntN(50) == 0 {
				z[i] = hostileValue(rng)
			}
		}
		want, wantErr := oracleFitSurface(x, y, z, knots)
		got, err := FitSurface(x, y, z, knots)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err = %v, oracle %v", trial, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("trial %d: err = %v, oracle %v", trial, err, wantErr)
			}
			continue
		}
		if !sameBits(got.Knots, want.Knots) || len(got.Pieces) != len(want.Pieces) {
			t.Fatalf("trial %d: knots %v with %d pieces, oracle %v with %d", trial, got.Knots, len(got.Pieces), want.Knots, len(want.Pieces))
		}
		for s := range want.Pieces {
			if !sameBits(got.Pieces[s].Weights, want.Pieces[s].Weights) {
				t.Fatalf("trial %d segment %d: %v, oracle %v", trial, s, got.Pieces[s].Weights, want.Pieces[s].Weights)
			}
		}
	}
}

func TestDesignErrors(t *testing.T) {
	if _, err := NewDesign(nil); err == nil {
		t.Error("expected error for an empty design")
	}
	if _, err := NewDesign([][]float64{{}, {}}); err == nil {
		t.Error("expected error for a design without columns")
	}
	if _, err := NewDesign([][]float64{{1, 2}}); !errors.Is(err, ErrInsufficientData) {
		t.Errorf("one row, two columns: err = %v, want ErrInsufficientData", err)
	}
	if _, err := NewDesign([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("expected ragged-design error")
	}
	d, err := NewDesign([][]float64{{1, 0}, {1, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Solve with a short target vector must panic")
		}
	}()
	d.Solve(make([]float64, 2), []float64{1, 2})
}
