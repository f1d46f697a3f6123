package power

import "github.com/tapas-sim/tapas/internal/layout"

// Budget tracks the live power envelopes of the three-level hierarchy
// (§2.2): per-row provisioned power (PDU pairs) and the UPS group. Failure
// events scale the effective limits: a UPS failure in the 4N/3 group drops
// datacenter capacity to 75%, which the operator propagates down as a
// uniform row multiplier.
type Budget struct {
	rowProvW []float64
	// multiplier is the current capacity factor: 1.0 healthy, 0.75 during
	// a UPS (power) emergency.
	multiplier float64
}

// NewBudget builds the budget from a generated datacenter.
func NewBudget(dc *layout.Datacenter) *Budget {
	b := &Budget{rowProvW: make([]float64, len(dc.Rows)), multiplier: 1}
	for i, row := range dc.Rows {
		b.rowProvW[i] = row.ProvPowerW
	}
	return b
}

// RowLimitW returns the current effective power limit of a row.
func (b *Budget) RowLimitW(row int) float64 { return b.rowProvW[row] * b.multiplier }

// SetEmergency sets the capacity multiplier (e.g. 0.75 on UPS failure) —
// pass 1 to clear.
func (b *Budget) SetEmergency(multiplier float64) {
	if multiplier <= 0 || multiplier > 1 {
		multiplier = 1
	}
	b.multiplier = multiplier
}

// Multiplier reports the current capacity factor.
func (b *Budget) Multiplier() float64 { return b.multiplier }

// UniformCapFactor computes the fraction by which every server in an
// over-budget row must scale its power to fit the limit. This is the
// baseline's capping behaviour: homogeneous limits pushed down the
// hierarchy (§2.2), implemented as a uniform frequency cap (§5.4).
func UniformCapFactor(drawW, limitW float64) float64 {
	if drawW <= 0 || drawW <= limitW {
		return 1
	}
	f := limitW / drawW
	if f < 0 {
		return 0
	}
	return f
}
