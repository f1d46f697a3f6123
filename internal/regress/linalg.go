// Package regress implements the regression toolkit used by TAPAS profiling:
// dense linear least squares, least-squares designs eliminated once and
// solved for many targets, polynomial and multivariate linear fits, a
// piecewise surface (the paper's inlet-temperature model), and summary
// statistics (MAE, mean and standard deviation, percentiles).
//
// The paper (§5.1) evaluates several regression families and selects
// piecewise polynomial regression for the cooling models because it reaches
// MAE < 1 °C while remaining fast, compact, and well-behaved on inputs below
// the training range. This package provides exactly that family, built from
// scratch on Gaussian elimination (no external dependencies).
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when elimination finds no usable pivot.
var ErrSingular = errors.New("regress: singular system")

// ErrInsufficientData is returned when a fit has fewer samples than
// parameters.
var ErrInsufficientData = errors.New("regress: insufficient data for fit")

// elimination is a square matrix reduced in place by Gaussian elimination
// with partial pivoting, together with the steps that reduced it, so the
// same steps can be replayed on any right-hand side.
type elimination struct {
	a     [][]float64 // upper triangle: the reduced matrix U
	pivot []int       // pivot[col]: the row swapped into position col
	// factor[col*n+r] is the multiple of row col subtracted from row r > col.
	factor []float64
}

// eliminate reduces the square matrix a in place. It fails with ErrSingular
// when a column has no pivot of magnitude 1e-12 or more.
func eliminate(a [][]float64) (*elimination, error) {
	n := len(a)
	e := &elimination{a: a, pivot: make([]int, n), factor: make([]float64, n*n)}
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
		e.pivot[col] = pivot
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			e.factor[col*n+r] = factor
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
		}
	}
	return e, nil
}

// solve replays the recorded swaps and row operations on b, in the order
// eliminate applied them to a, skipping zero factors as eliminate does, and
// back-substitutes, leaving the solution in b. b sees the operations that
// eliminating a together with b makes, in the same order, so the bits match.
func (e *elimination) solve(b []float64) {
	n := len(e.a)
	for col := 0; col < n; col++ {
		p := e.pivot[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < n; r++ {
			if factor := e.factor[col*n+r]; factor != 0 {
				b[r] -= factor * b[col]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= e.a[r][c] * b[c]
		}
		b[r] = sum / e.a[r][r]
	}
}

// Design is a least-squares design matrix X (one row per sample) whose
// normal equations are formed and eliminated once, for fitting many targets
// over the same samples: offline profiling fits one target per server or
// GPU against one shared grid. NewDesign keeps X; the caller must not
// modify it while the Design is in use. A Design is read-only after
// NewDesign returns and safe for concurrent use.
type Design struct {
	x    [][]float64
	elim *elimination
}

// NewDesign forms XᵀX with a small ridge term, which keeps near-collinear
// designs solvable (profiling data can cover a narrow operating range), and
// eliminates it. It fails when X is empty or ragged, or has fewer rows than
// columns (ErrInsufficientData). A zero or repeated column does not fail:
// the ridge of 1e-9·(1+diagonal) keeps every pivot far above eliminate's
// threshold, so such a column fits with ridge weights (a zero column gets
// weight 0, and repeated columns share one weight equally).
func NewDesign(x [][]float64) (*Design, error) {
	m := len(x)
	if m == 0 || len(x[0]) == 0 {
		return nil, fmt.Errorf("regress: empty design matrix")
	}
	p := len(x[0])
	if m < p {
		return nil, ErrInsufficientData
	}
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	for r, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("regress: ragged design matrix at row %d", r)
		}
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	const ridge = 1e-9
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += ridge * (1 + xtx[i][i])
	}
	elim, err := eliminate(xtx)
	if err != nil {
		return nil, err
	}
	return &Design{x: x, elim: elim}, nil
}

// Solve writes to w the weights minimizing ‖X·w − y‖². It forms Xᵀy in row
// order and replays the design's elimination on it, so w equals
// LeastSquares(x, y) bit for bit. y holds one target per row of X and w one
// weight per column; other lengths are a caller bug and panic.
func (d *Design) Solve(w, y []float64) {
	if len(y) != len(d.x) || len(w) != len(d.elim.a) {
		panic(fmt.Sprintf("regress: Solve with %d targets and %d weights for a %dx%d design",
			len(y), len(w), len(d.x), len(d.elim.a)))
	}
	for i := range w {
		w[i] = 0
	}
	for r, row := range d.x {
		for i := range w {
			w[i] += row[i] * y[r]
		}
	}
	d.elim.solve(w)
}

// LeastSquares fits weights w minimizing ‖X·w − y‖² via the normal equations
// XᵀX·w = Xᵀy, with NewDesign's ridge term. X is the design matrix (one row
// per sample).
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	if len(x) == 0 || len(y) != len(x) {
		return nil, fmt.Errorf("regress: design matrix has %d rows, y has %d", len(x), len(y))
	}
	d, err := NewDesign(x)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(x[0]))
	d.Solve(w, y)
	return w, nil
}
