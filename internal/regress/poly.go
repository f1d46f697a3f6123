package regress

import "fmt"

// Poly is a univariate polynomial c₀ + c₁x + c₂x² + … .
type Poly struct {
	Coeffs []float64
}

// Eval evaluates the polynomial at x using Horner's method.
func (p Poly) Eval(x float64) float64 {
	v := 0.0
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*x + p.Coeffs[i]
	}
	return v
}

// FitPoly fits a degree-d polynomial to (x, y) by least squares.
func FitPoly(x, y []float64, degree int) (Poly, error) {
	if degree < 0 {
		return Poly{}, fmt.Errorf("regress: negative degree %d", degree)
	}
	if len(x) != len(y) {
		return Poly{}, fmt.Errorf("regress: len(x)=%d != len(y)=%d", len(x), len(y))
	}
	design := make([][]float64, len(x))
	for i, xi := range x {
		row := make([]float64, degree+1)
		v := 1.0
		for j := 0; j <= degree; j++ {
			row[j] = v
			v *= xi
		}
		design[i] = row
	}
	coeffs, err := LeastSquares(design, y)
	if err != nil {
		return Poly{}, err
	}
	return Poly{Coeffs: coeffs}, nil
}

// Linear is a multivariate linear model y = w·f(x) over an explicit feature
// vector (callers prepend 1 for the intercept).
type Linear struct {
	Weights []float64
}

// Eval computes the dot product of the weights with the feature vector.
func (l Linear) Eval(features []float64) float64 {
	v := 0.0
	for i, w := range l.Weights {
		v += w * features[i]
	}
	return v
}

// FitLinear fits a multivariate linear model by least squares.
func FitLinear(features [][]float64, y []float64) (Linear, error) {
	w, err := LeastSquares(features, y)
	if err != nil {
		return Linear{}, err
	}
	return Linear{Weights: w}, nil
}
