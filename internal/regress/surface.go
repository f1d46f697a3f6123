package regress

import (
	"fmt"
	"sort"
)

// Surface models z = f(x, y) as a piecewise model over segments of x, with a
// polynomial in x and a linear term in y per segment:
//
//	z = a + b·x + c·x² + d·y        (within each x-segment)
//
// This is the functional form TAPAS uses for the per-server inlet model
// (Eq. 1): x is the outside temperature (piecewise, because cooling behaves
// differently below 15 °C, between 15–25 °C, and above), and y is the
// datacenter load fraction, whose effect is roughly linear (Fig. 5).
type Surface struct {
	Knots  []float64 // interior x boundaries, ascending
	Pieces []Linear  // len(Knots)+1 models over features [1, x, x², y]
}

// Eval evaluates the surface at (x, y).
func (s Surface) Eval(x, y float64) float64 {
	idx := sort.SearchFloat64s(s.Knots, x)
	return s.Pieces[idx].Eval([]float64{1, x, x * x, y})
}

// FitSurface fits the piecewise surface to samples (x[i], y[i]) → z[i].
// Segments lacking enough samples inherit the nearest fitted segment.
func FitSurface(x, y, z []float64, knots []float64) (Surface, error) {
	if len(x) != len(y) || len(x) != len(z) {
		return Surface{}, fmt.Errorf("regress: surface sample lengths differ: %d/%d/%d", len(x), len(y), len(z))
	}
	d, err := NewSurfaceDesign(x, y, knots)
	if err != nil {
		return Surface{}, err
	}
	return d.Fit(z), nil
}

// SurfaceDesign is the piecewise design of a Surface over fixed sample
// points (x[i], y[i]): each segment's rows, in sample order, form one Design.
// Fitting a surface to another target over the same points then costs one
// pass over the samples. It is read-only and safe for concurrent use.
type SurfaceDesign struct {
	knots   []float64
	samples [][]int   // per segment, the indexes of its samples, ascending
	designs []*Design // per segment; nil when the segment cannot be fitted
}

// NewSurfaceDesign segments the sample points by knots and eliminates each
// segment's design. A segment with fewer than 8 samples (4 parameters,
// demanding 2× samples for stability) is unfitted; it fails with
// ErrInsufficientData when no segment can be fitted. Any other segment
// fits, even when its samples repeat one point or hold a load constant:
// NewDesign's ridge gives the degenerate columns ridge weights. It copies
// knots once, and every Surface it fits shares the copy.
func NewSurfaceDesign(x, y, knots []float64) (*SurfaceDesign, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("regress: surface sample lengths differ: %d/%d", len(x), len(y))
	}
	if !sort.Float64sAreSorted(knots) {
		return nil, fmt.Errorf("regress: knots must be ascending")
	}
	nseg := len(knots) + 1
	d := &SurfaceDesign{
		knots:   append([]float64(nil), knots...),
		samples: make([][]int, nseg),
		designs: make([]*Design, nseg),
	}
	rows := make([][][]float64, nseg)
	for i, xi := range x {
		s := sort.SearchFloat64s(knots, xi)
		rows[s] = append(rows[s], []float64{1, xi, xi * xi, y[i]})
		d.samples[s] = append(d.samples[s], i)
	}
	anyFit := false
	for s := range rows {
		if len(rows[s]) >= 8 {
			if des, err := NewDesign(rows[s]); err == nil {
				d.designs[s], anyFit = des, true
			}
		}
	}
	if !anyFit {
		return nil, ErrInsufficientData
	}
	return d, nil
}

// Fit fits the surface to z, one target per sample point of the design.
// Unfitted segments inherit the nearest fitted segment's piece, the one
// below first.
func (d *SurfaceDesign) Fit(z []float64) Surface {
	nseg := len(d.designs)
	pieces := make([]Linear, nseg)
	weights := make([]float64, 4*nseg)
	rows := 0
	for _, idx := range d.samples {
		rows = max(rows, len(idx))
	}
	targets := make([]float64, 0, rows)
	for s, des := range d.designs {
		if des == nil {
			continue
		}
		targets = targets[:0]
		for _, i := range d.samples[s] {
			targets = append(targets, z[i])
		}
		w := weights[4*s : 4*s+4 : 4*s+4]
		des.Solve(w, targets)
		pieces[s] = Linear{Weights: w}
	}
	// A piece with weights is fitted or has already inherited.
	for s := 1; s < nseg; s++ {
		if pieces[s].Weights == nil && pieces[s-1].Weights != nil {
			pieces[s] = pieces[s-1]
		}
	}
	for s := nseg - 2; s >= 0; s-- {
		if pieces[s].Weights == nil && pieces[s+1].Weights != nil {
			pieces[s] = pieces[s+1]
		}
	}
	return Surface{Knots: d.knots, Pieces: pieces}
}
