package regress

import "math"

// MAE returns the mean absolute error between predictions and actuals.
// Returns NaN for empty or mismatched inputs.
func MAE(pred, actual []float64) float64 {
	if len(pred) == 0 || len(pred) != len(actual) {
		return math.NaN()
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - actual[i])
	}
	return sum / float64(len(pred))
}

// MeanStd returns the mean and population standard deviation of xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// Percentile returns the p-th percentile (0–100) of xs using linear
// interpolation between closest ranks. xs need not be sorted; a copy is
// sorted internally. Returns NaN for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	return PercentileInPlace(sorted, p)
}

// PercentileInPlace is Percentile without the defensive copy: it sorts xs.
// For callers whose input is scratch anyway (power's template buckets) the
// copy per call is pure overhead.
func PercentileInPlace(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := xs
	sortFloat64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortFloat64s is a local insertion/heap hybrid-free shim around sort to
// avoid importing sort in every metrics caller.
func sortFloat64s(xs []float64) {
	// Simple quicksort with insertion for small slices; deterministic and
	// allocation-free.
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 12 {
			mid := lo + (hi-lo)/2
			// median-of-three pivot
			if xs[mid] < xs[lo] {
				xs[mid], xs[lo] = xs[lo], xs[mid]
			}
			if xs[hi] < xs[lo] {
				xs[hi], xs[lo] = xs[lo], xs[hi]
			}
			if xs[hi] < xs[mid] {
				xs[hi], xs[mid] = xs[mid], xs[hi]
			}
			pivot := xs[mid]
			i, j := lo, hi
			for i <= j {
				for xs[i] < pivot {
					i++
				}
				for xs[j] > pivot {
					j--
				}
				if i <= j {
					xs[i], xs[j] = xs[j], xs[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j)
				lo = i
			} else {
				qs(i, hi)
				hi = j
			}
		}
		for i := lo + 1; i <= hi; i++ {
			for k := i; k > lo && xs[k] < xs[k-1]; k-- {
				xs[k], xs[k-1] = xs[k-1], xs[k]
			}
		}
	}
	if len(xs) > 1 {
		qs(0, len(xs)-1)
	}
}
