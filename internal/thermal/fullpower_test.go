package thermal

import (
	"math"
	"math/rand/v2"
	"testing"
)

// oracleCeiling is the Instance Configurator's thermal ceiling as it stood
// before the full-power inlet: every GPU's inversion at the inlet, the
// smallest below 1 kept.
func oracleCeiling(m *GPUTempModel, server int, inletC, limitC float64) float64 {
	maxFrac := 1.0
	for g := 0; g < m.GPUsPerServer; g++ {
		h := m.HeadroomPowerFrac(server, g, inletC, limitC)
		if h < maxFrac {
			maxFrac = h
		}
	}
	return maxFrac
}

// randomGPUTempModel draws per-GPU weights around the fitted ones (bias
// 4–6 °C, inlet weight 1, gain 31–55 °C) and, on some GPUs, hostile ones:
// a negative, zero or tiny inlet weight, a zero or negative gain, a bias
// far from the fit or one that cancels the limit against the gain, and an
// inlet-independent inversion below 1.
func randomGPUTempModel(rng *rand.Rand, servers int) *GPUTempModel {
	const gpus = 8
	m := &GPUTempModel{Weights: make([]float64, servers*gpus*3), GPUsPerServer: gpus}
	for i := 0; i < servers*gpus; i++ {
		w := m.Weights[3*i : 3*i+3]
		w[0] = 4 + 2*rng.Float64()
		w[1] = 0.9 + 0.2*rng.Float64()
		w[2] = 31 + 24*rng.Float64()
		switch rng.IntN(60) {
		case 0:
			w[1] = -0.05 * rng.Float64()
		case 1:
			w[1] = 0
		case 2:
			w[1] = 1e-300 * rng.Float64()
		case 3:
			w[2] = 0
		case 4:
			w[2] = -10 * rng.Float64()
		case 5:
			w[0] = -60 + 120*rng.Float64()
		case 6:
			w[0] = 82 - w[2] + 1e-9*(rng.Float64()-0.5)
		case 7:
			w[0], w[1] = 60+10*rng.Float64(), 0 // below 1 at every inlet
		}
	}
	return m
}

// TestFullPowerInletMatchesLoop checks the full-power inlet against the
// per-GPU loop it lets the configurator skip, by float bits: on random
// servers (fitted-like weights plus hostile ones), the ceiling taken as 1
// at or below the threshold and from the loop above it must equal the
// loop at the threshold, one ulp either side of it and at random inlets,
// and the loop must be exactly 1 at a finite threshold. Counters check
// that candidates were confirmed as derived and after steps down, that
// negative inlet weights gave −Inf and that non-positive gains occurred.
func TestFullPowerInletMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 4))
	const servers = 4000
	m := randomGPUTempModel(rng, servers)
	seen := map[string]int{}
	for s := 0; s < servers; s++ {
		limit := 82.0
		if s%4 == 3 {
			limit = 60 + 40*rng.Float64()
		}
		thr := m.FullPowerInlet(s, limit)
		ceiling := func(inlet float64) float64 {
			if inlet <= thr {
				return 1
			}
			return m.ServerHeadroomPowerFrac(s, inlet, limit)
		}
		inlets := []float64{-20 + 100*rng.Float64(), 15 + 30*rng.Float64(), 15 + 30*rng.Float64()}
		if !math.IsInf(thr, -1) {
			inlets = append(inlets, thr, math.Nextafter(thr, math.Inf(1)), math.Nextafter(thr, math.Inf(-1)))
		}
		for _, inlet := range inlets {
			if got, want := ceiling(inlet), oracleCeiling(m, s, inlet, limit); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("server %d, limit %v, threshold %v: ceiling at inlet %v = %v, loop %v", s, limit, thr, inlet, got, want)
			}
		}

		// Classify the server and its derived candidate.
		candidate, negative, nonPositive := math.MaxFloat64, false, false
		for g := 0; g < m.GPUsPerServer; g++ {
			w := m.weights(s, g)
			switch {
			case !(w[2] > 0):
				nonPositive = true
			case w[1] < 0:
				negative = true
			case w[1] > 0:
				candidate = math.Min(candidate, (limit-w[0]-w[2])/w[1])
			}
		}
		if nonPositive {
			seen["non-positive gain"]++
		}
		if negative {
			seen["negative inlet weight"]++
			if !math.IsInf(thr, -1) {
				t.Fatalf("server %d has a negative inlet weight, threshold %v, want -Inf", s, thr)
			}
			continue
		}
		if math.IsInf(thr, -1) {
			seen["no full-power inlet"]++
			continue
		}
		if oracleCeiling(m, s, thr, limit) != 1 {
			t.Fatalf("server %d, limit %v: loop at threshold %v is %v, want 1", s, limit, thr, oracleCeiling(m, s, thr, limit))
		}
		switch {
		case thr == candidate:
			seen["candidate confirmed"]++
		case thr < candidate:
			seen["stepped down"]++
		default:
			t.Fatalf("server %d, limit %v: threshold %v above its candidate %v", s, limit, thr, candidate)
		}
	}
	for _, k := range []string{"non-positive gain", "negative inlet weight", "no full-power inlet", "stepped down", "candidate confirmed"} {
		if seen[k] == 0 {
			t.Errorf("no random server reached %q", k)
		}
	}
	t.Logf("case counts: %v", seen)
}

// TestFullPowerInletEdges pins the threshold's special cases on one-GPU
// servers: a non-positive gain never binds, a zero inlet weight binds at
// every inlet or none, a negative inlet weight gives −Inf, and a NaN weight
// leaves the loop to decide.
func TestFullPowerInletEdges(t *testing.T) {
	limit := 82.0
	for _, c := range []struct {
		name string
		w    [3]float64
		want float64
	}{
		{"zero gain", [3]float64{5, 1, 0}, math.MaxFloat64},
		{"negative gain", [3]float64{5, 1, -3}, math.MaxFloat64},
		{"zero inlet weight, cool", [3]float64{5, 0, 40}, math.MaxFloat64},
		{"zero inlet weight, hot", [3]float64{50, 0, 40}, math.Inf(-1)},
		{"negative inlet weight", [3]float64{5, -0.1, 40}, math.Inf(-1)},
		{"NaN inlet weight", [3]float64{5, math.NaN(), 40}, math.Inf(-1)},
	} {
		m := &GPUTempModel{Weights: c.w[:], GPUsPerServer: 1}
		if got := m.FullPowerInlet(0, limit); got != c.want {
			t.Errorf("%s: FullPowerInlet = %v, want %v", c.name, got, c.want)
		}
	}
	// The usual case: (82−5−40)/1 = 37 °C, exact in float64.
	m := &GPUTempModel{Weights: []float64{5, 1, 40}, GPUsPerServer: 1}
	if got := m.FullPowerInlet(0, limit); got != 37 {
		t.Errorf("FullPowerInlet = %v, want 37", got)
	}
}
