package thermal

import (
	"fmt"
	"math"

	"github.com/tapas-sim/tapas/internal/regress"
)

// DefaultKnots are the outside-temperature segment boundaries used when
// fitting inlet models; they bracket the cooling plant's two behavioural
// knees.
var DefaultKnots = []float64{15, 25}

// InletModel is the learned per-server inlet-temperature model (Eq. 1):
// T_inlet,s = f_s(T_outside, Load_DC).
type InletModel struct {
	PerServer []regress.Surface
}

// Predict estimates the inlet temperature of a server.
func (m *InletModel) Predict(serverID int, outsideC, dcLoadFrac float64) float64 {
	return m.PerServer[serverID].Eval(outsideC, dcLoadFrac)
}

// FitInletModel fits a piecewise-polynomial surface per server, the
// regression family the paper selects for its < 1 °C MAE and sane
// extrapolation, over the profiling grid outsides × loads: inletC(server,
// outside, load) is the inlet temperature observed on one server of
// nServers. Every server shares the grid, so the segment designs over
// DefaultKnots are eliminated once and each server's fit costs one pass
// over its observations, in grid order (outside temperature outer).
func FitInletModel(outsides, loads []float64, nServers int, inletC func(server int, outsideC, dcLoadFrac float64) float64) (*InletModel, error) {
	n := len(outsides) * len(loads)
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for _, o := range outsides {
		for _, l := range loads {
			xs, ys = append(xs, o), append(ys, l)
		}
	}
	design, err := regress.NewSurfaceDesign(xs, ys, DefaultKnots)
	if err != nil {
		return nil, fmt.Errorf("thermal: fitting inlet model over %d grid points: %w", n, err)
	}
	m := &InletModel{PerServer: make([]regress.Surface, nServers)}
	zs := make([]float64, n)
	for sv := range m.PerServer {
		k := 0
		for _, o := range outsides {
			for _, l := range loads {
				zs[k] = inletC(sv, o, l)
				k++
			}
		}
		m.PerServer[sv] = design.Fit(zs)
	}
	return m, nil
}

// GPUTempModel is the learned per-GPU temperature model (Eq. 2):
// T_GPU,s,g = f_s,g(T_inlet,s, Load_GPU,g). Linear in both inputs.
type GPUTempModel struct {
	// Weights holds each GPU's fitted weights over the features
	// [1, inletC, powerFrac], three per GPU, flat-indexed from
	// (serverID*GPUsPerServer + gpu)*3.
	Weights       []float64
	GPUsPerServer int
}

// weights returns one GPU's three fitted weights.
func (m *GPUTempModel) weights(serverID, gpu int) []float64 {
	i := (serverID*m.GPUsPerServer + gpu) * 3
	return m.Weights[i : i+3 : i+3]
}

// Predict estimates the temperature of one GPU. It sums the weighted
// features in feature order, as regress.Linear.Eval does, so the result is
// bit-identical to evaluating the fitted regress.Linear.
func (m *GPUTempModel) Predict(serverID, gpu int, inletC, powerFrac float64) float64 {
	return m.AddPower(serverID, gpu, m.InletPartial(serverID, gpu, inletC), powerFrac)
}

// InletPartial returns the inlet-dependent part of Predict, the sum of the
// intercept and inlet terms. Callers that project one GPU at many power
// fractions under the same inlet compute it once and finish each projection
// with AddPower.
func (m *GPUTempModel) InletPartial(serverID, gpu int, inletC float64) float64 {
	w := m.weights(serverID, gpu)
	return (0 + w[0]*1) + w[1]*inletC
}

// AddPower finishes a projection started by InletPartial:
// AddPower(s, g, InletPartial(s, g, inlet), frac) == Predict(s, g, inlet, frac)
// bit for bit.
func (m *GPUTempModel) AddPower(serverID, gpu int, partial, powerFrac float64) float64 {
	return partial + m.Weights[(serverID*m.GPUsPerServer+gpu)*3+2]*powerFrac
}

// HeadroomPowerFrac inverts the learned model: the highest power fraction
// the GPU can run while staying at or below limitC for the given inlet.
// This is what the Instance Configurator and router use to compute thermal
// headroom. Clamped to [0, 1].
func (m *GPUTempModel) HeadroomPowerFrac(serverID, gpu int, inletC, limitC float64) float64 {
	w := m.weights(serverID, gpu)
	// temp = w0 + w1·inlet + w2·powerFrac  ⇒  powerFrac = (limit−w0−w1·inlet)/w2
	if w[2] <= 0 {
		return 1
	}
	v := (limitC - w[0] - w[1]*inletC) / w[2]
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ServerHeadroomPowerFrac is the server's thermal ceiling: the smallest
// HeadroomPowerFrac over its GPUs at one inlet, at most 1. A GPU whose
// inversion is NaN does not bind.
func (m *GPUTempModel) ServerHeadroomPowerFrac(serverID int, inletC, limitC float64) float64 {
	frac := 1.0
	for g := 0; g < m.GPUsPerServer; g++ {
		if h := m.HeadroomPowerFrac(serverID, g, inletC, limitC); h < frac {
			frac = h
		}
	}
	return frac
}

// fullPowerSteps bounds the one-ulp steps down FullPowerInlet takes from its
// derived candidate. Without cancellation the derivation lands within a few
// ulps of the threshold.
const fullPowerSteps = 64

// FullPowerInlet returns an inlet at or below which
// ServerHeadroomPowerFrac(serverID, inlet, limitC) is exactly 1 at every
// finite inlet, or −Inf when it knows no such inlet. The Instance
// Configurator compares a server's inlet with it to skip the per-GPU
// inversion, which is exactly 1 in most of its decisions.
//
// A GPU with a non-positive power weight returns 1 at every inlet. With a
// non-negative inlet weight, the inversion never increases as the inlet
// rises, rounding included, so every inlet below a confirmed one gives 1
// too. With a negative inlet weight it falls below 1 at low enough inlets,
// and the server gets −Inf. The candidate, the largest inlet in exact
// arithmetic, solves (limit−w0−w1·inlet)/w2 = 1 on each GPU;
// ServerHeadroomPowerFrac itself confirms it, and each failed check steps
// it down one ulp (math.Nextafter). A candidate that fullPowerSteps steps
// do not confirm gives −Inf.
func (m *GPUTempModel) FullPowerInlet(serverID int, limitC float64) float64 {
	t := math.MaxFloat64
	for g := 0; g < m.GPUsPerServer; g++ {
		w := m.weights(serverID, g)
		if !(w[2] > 0) {
			continue // 1 (or a NaN that never binds) at every inlet
		}
		if !(w[1] >= 0) {
			return math.Inf(-1) // a negative or NaN inlet weight
		}
		// With a zero inlet weight the inversion does not depend on the
		// inlet: the candidate is −Inf where it binds and +Inf or NaN where
		// it does not. Any other NaN candidate comes from a NaN the
		// inversion carries at every inlet, which never binds either; a NaN
		// drops out of the minimum.
		if c := (limitC - w[0] - w[2]) / w[1]; c < t {
			t = c
		}
	}
	if math.IsInf(t, -1) {
		return t
	}
	for k := 0; m.ServerHeadroomPowerFrac(serverID, t, limitC) != 1; k++ {
		if k == fullPowerSteps {
			return math.Inf(-1)
		}
		t = math.Nextafter(t, math.Inf(-1))
	}
	return t
}

// FitGPUTempModel fits a linear model per (server, GPU) pair over the
// profiling grid inlets × fracs: tempC(server, gpu, inlet, powerFrac) is the
// temperature observed on one GPU. Every GPU shares the grid, so the design
// over [1, inletC, powerFrac] is eliminated once and each GPU's fit costs
// one pass over its observations, in grid order (inlet outer). The grid
// must hold at least 6 points, twice the parameter count.
func FitGPUTempModel(inlets, fracs []float64, nServers, gpusPerServer int, tempC func(server, gpu int, inletC, powerFrac float64) float64) (*GPUTempModel, error) {
	n := len(inlets) * len(fracs)
	if n < 6 {
		return nil, fmt.Errorf("thermal: only %d samples per GPU: %w", n, regress.ErrInsufficientData)
	}
	rows := make([][]float64, 0, n)
	for _, in := range inlets {
		for _, f := range fracs {
			rows = append(rows, []float64{1, in, f})
		}
	}
	design, err := regress.NewDesign(rows)
	if err != nil {
		return nil, fmt.Errorf("thermal: fitting gpu temp model: %w", err)
	}
	m := &GPUTempModel{Weights: make([]float64, nServers*gpusPerServer*3), GPUsPerServer: gpusPerServer}
	ys := make([]float64, n)
	for sv := 0; sv < nServers; sv++ {
		for g := 0; g < gpusPerServer; g++ {
			k := 0
			for _, in := range inlets {
				for _, f := range fracs {
					ys[k] = tempC(sv, g, in, f)
					k++
				}
			}
			design.Solve(m.weights(sv, g), ys)
		}
	}
	return m, nil
}

// AirflowModel is the learned linear airflow function f_air(Load) shared by
// all servers of a given hardware generation ("All servers follow a similar
// linear function", §2.1).
type AirflowModel struct {
	IdleCFM float64
	MaxCFM  float64
}

// Predict returns the estimated airflow at a load fraction.
func (m AirflowModel) Predict(loadFrac float64) float64 {
	if loadFrac < 0 {
		loadFrac = 0
	}
	if loadFrac > 1 {
		loadFrac = 1
	}
	return m.IdleCFM + (m.MaxCFM-m.IdleCFM)*loadFrac
}

// FitAirflowModel fits the linear airflow curve from (load, airflow)
// measurements taken at idle, full load, and a few intermediate settings.
func FitAirflowModel(loads, airflows []float64) (AirflowModel, error) {
	p, err := regress.FitPoly(loads, airflows, 1)
	if err != nil {
		return AirflowModel{}, fmt.Errorf("thermal: fitting airflow model: %w", err)
	}
	return AirflowModel{IdleCFM: p.Eval(0), MaxCFM: p.Eval(1)}, nil
}
