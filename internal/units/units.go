// Package units holds the scalar helpers the simulator's physics, serving
// and engine code share: clamping to a range and linear interpolation.
package units

// Clamp limits v to the inclusive range [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp01 limits v to [0, 1]. Used for utilization and load fractions.
func Clamp01(v float64) float64 { return Clamp(v, 0, 1) }

// Lerp linearly interpolates between a and b by t in [0,1].
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
