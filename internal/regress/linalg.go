// Package regress implements the regression toolkit used by TAPAS profiling:
// dense linear least squares, polynomial and multivariate linear fits, a
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

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("regress: singular system")

// ErrInsufficientData is returned when a fit has fewer samples than
// parameters.
var ErrInsufficientData = errors.New("regress: insufficient data for fit")

// SolveLinear solves A·x = b in place using Gaussian elimination with partial
// pivoting. A must be square; A and b are clobbered.
func SolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("regress: bad system dimensions %dx%d", len(a), len(b))
	}
	for _, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("regress: non-square matrix row len %d != %d", len(row), n)
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

// LeastSquares fits weights w minimizing ‖X·w − y‖² via the normal equations
// XᵀX·w = Xᵀy. X is the design matrix (one row per sample). A small ridge
// term keeps near-collinear designs solvable, which matters when profiling
// data covers a narrow operating range.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 || len(y) != m {
		return nil, fmt.Errorf("regress: design matrix has %d rows, y has %d", m, len(y))
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
			return nil, fmt.Errorf("regress: ragged design matrix at row %d", r)
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
	return SolveLinear(xtx, xty)
}
