package thermal

import (
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/units"
)

// Coeffs holds the ground-truth thermal response of a fleet flattened into
// contiguous per-(server,GPU) coefficient tables. The simulator's tick kernel
// evaluates GPUTemp (inlined over BiasC and GainC) and MaxPowerFrac for every
// GPU of every server on every tick; with the coefficients laid out flat
// (stride GPUsPerServer) those become multiply-adds over sequential memory
// instead of pointer chases through *layout.Server. Compile once per
// datacenter; the tables are immutable and safe to share across concurrent
// runs.
//
// The tables hold the layout's values unchanged, and MaxPowerFrac matches
// the package-level MaxPowerFrac operation for operation, so results are
// bit-identical to evaluating the physics through the layout.
type Coeffs struct {
	GPUsPerServer int
	// BiasC and GainC are indexed server*GPUsPerServer + gpu.
	BiasC []float64 // idle temperature offset above inlet per GPU
	GainC []float64 // temperature rise above inlet at TDP per GPU
	// InletOffsetC is the spatial inlet offset per server.
	InletOffsetC []float64
}

// CompileCoeffs flattens the per-server heterogeneity of a generated
// datacenter into coefficient tables.
func CompileCoeffs(servers []*layout.Server, gpusPerServer int) *Coeffs {
	c := &Coeffs{
		GPUsPerServer: gpusPerServer,
		BiasC:         make([]float64, len(servers)*gpusPerServer),
		GainC:         make([]float64, len(servers)*gpusPerServer),
		InletOffsetC:  make([]float64, len(servers)),
	}
	for i, s := range servers {
		c.InletOffsetC[i] = s.InletOffsetC
		copy(c.BiasC[i*gpusPerServer:], s.GPUTempBiasC)
		copy(c.GainC[i*gpusPerServer:], s.GPUTempGainC)
	}
	return c
}

// MaxPowerFrac mirrors the package-level MaxPowerFrac for the flat index.
func (c *Coeffs) MaxPowerFrac(idx int, inletC, limitC float64) float64 {
	gain := c.GainC[idx]
	if gain <= 0 {
		return 1
	}
	return units.Clamp01((limitC - inletC - c.BiasC[idx]) / gain)
}
