package thermal

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
)

// TestCoeffsMatchPhysics pins Coeffs' contract on a mixed A100/H100 fleet:
// the tables hold each server's layout values unchanged, and MaxPowerFrac
// equals the package-level MaxPowerFrac bit for bit, also for a GPU whose
// gain is zero.
func TestCoeffsMatchPhysics(t *testing.T) {
	cfg := layout.SmallConfig()
	cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 2, layout.H100, 0.5
	dc, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gpus := layout.Spec(cfg.GPU).GPUsPerServer
	// A hand-built server whose first GPU does not heat with power.
	flat := &layout.Server{
		ID:           len(dc.Servers),
		InletOffsetC: 0.7,
		GPUTempGainC: make([]float64, gpus),
		GPUTempBiasC: make([]float64, gpus),
	}
	for g := 1; g < gpus; g++ {
		flat.GPUTempGainC[g], flat.GPUTempBiasC[g] = 40+float64(g), 10-float64(g)
	}
	servers := append(append([]*layout.Server(nil), dc.Servers...), flat)
	models := map[layout.GPUModel]bool{}
	for _, s := range dc.Servers {
		models[s.GPU.Model] = true
	}
	if len(models) != 2 {
		t.Fatalf("fleet has %d GPU generations, want 2", len(models))
	}

	co := CompileCoeffs(servers, gpus)
	if co.GPUsPerServer != gpus || len(co.InletOffsetC) != len(servers) ||
		len(co.BiasC) != len(servers)*gpus || len(co.GainC) != len(servers)*gpus {
		t.Fatalf("tables sized %d/%d/%d at stride %d, want %d servers of %d GPUs",
			len(co.InletOffsetC), len(co.BiasC), len(co.GainC), co.GPUsPerServer, len(servers), gpus)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for i, s := range servers {
		if math.Float64bits(co.InletOffsetC[i]) != math.Float64bits(s.InletOffsetC) {
			t.Fatalf("server %d: InletOffsetC = %v, layout %v", i, co.InletOffsetC[i], s.InletOffsetC)
		}
		for g := 0; g < gpus; g++ {
			idx := i*gpus + g
			if math.Float64bits(co.BiasC[idx]) != math.Float64bits(s.GPUTempBiasC[g]) ||
				math.Float64bits(co.GainC[idx]) != math.Float64bits(s.GPUTempGainC[g]) {
				t.Fatalf("server %d gpu %d: bias/gain = %v/%v, layout %v/%v",
					i, g, co.BiasC[idx], co.GainC[idx], s.GPUTempBiasC[g], s.GPUTempGainC[g])
			}
			for k := 0; k < 8; k++ {
				inlet, limit := rng.Float64()*60-10, 40+rng.Float64()*60
				want := MaxPowerFrac(s, g, inlet, limit)
				if got := co.MaxPowerFrac(idx, inlet, limit); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("server %d gpu %d: MaxPowerFrac(%v, %v) = %v, physics %v", i, g, inlet, limit, got, want)
				}
			}
		}
	}
	if got := co.MaxPowerFrac(len(dc.Servers)*gpus, 200, 85); got != 1 {
		t.Errorf("zero-gain GPU: MaxPowerFrac = %v, want 1", got)
	}
}
