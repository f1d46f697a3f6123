package thermal

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/regress"
)

// genInletSamples produces synthetic sensor history by running the physics
// over random operating conditions — the same pipeline the profiler uses.
func genInletSamples(dc *layout.Datacenter, n int, rng *rand.Rand) []InletSample {
	samples := make([]InletSample, n)
	for i := range samples {
		outside := rng.Float64()*38 - 2
		load := rng.Float64()
		inlets := make([]float64, len(dc.Servers))
		for j, s := range dc.Servers {
			inlets[j] = InletTemp(s, outside, load, 0) + rng.NormFloat64()*0.2
		}
		samples[i] = InletSample{OutsideC: outside, DCLoadFrac: load, InletC: inlets}
	}
	return samples
}

func TestFitInletModelMAEUnderOneDegree(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	model, err := FitInletModel(genInletSamples(dc, 2000, rng), len(dc.Servers))
	if err != nil {
		t.Fatal(err)
	}
	// Held-out evaluation across all servers: the paper reports MAE < 1 °C
	// for the piecewise-polynomial family.
	var pred, actual []float64
	for i := 0; i < 500; i++ {
		outside := rng.Float64()*38 - 2
		load := rng.Float64()
		for j, s := range dc.Servers {
			pred = append(pred, model.Predict(j, outside, load))
			actual = append(actual, InletTemp(s, outside, load, 0))
		}
	}
	if mae := regress.MAE(pred, actual); mae > 1.0 {
		t.Errorf("inlet model MAE = %.3f °C, want < 1 (paper §5.1)", mae)
	}
}

func TestFitInletModelErrors(t *testing.T) {
	if _, err := FitInletModel(nil, 3); err == nil {
		t.Error("expected error for no samples")
	}
	bad := []InletSample{{OutsideC: 20, DCLoadFrac: 0.5, InletC: []float64{20}}}
	if _, err := FitInletModel(bad, 3); err == nil {
		t.Error("expected error for server-count mismatch")
	}
}

func TestFitGPUTempModelRecoversPhysics(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	nSrv := 4 // model a subset to keep the test quick
	gpus := dc.Servers[0].GPU.GPUsPerServer
	var samples []GPUSample
	for i := 0; i < 400; i++ {
		inlet := 18 + rng.Float64()*10
		for sv := 0; sv < nSrv; sv++ {
			for g := 0; g < gpus; g++ {
				pf := rng.Float64()
				samples = append(samples, GPUSample{
					Server: sv, GPU: g, InletC: inlet, PowerFrac: pf,
					TempC: GPUTemp(dc.Servers[sv], g, inlet, pf) + rng.NormFloat64()*0.3,
				})
			}
		}
	}
	model, err := FitGPUTempModel(samples, nSrv, gpus)
	if err != nil {
		t.Fatal(err)
	}
	var pred, actual []float64
	for i := 0; i < 200; i++ {
		inlet := 18 + rng.Float64()*10
		pf := rng.Float64()
		sv := i % nSrv
		g := i % gpus
		pred = append(pred, model.Predict(sv, g, inlet, pf))
		actual = append(actual, GPUTemp(dc.Servers[sv], g, inlet, pf))
	}
	if mae := regress.MAE(pred, actual); mae > 1.0 {
		t.Errorf("GPU temp model MAE = %.3f °C, want < 1 (paper Fig. 7)", mae)
	}
}

// TestGPUTempSplitMatchesLinear pins the flat weight table to the fitted
// regress.Linear models: each GPU's weights are its own fit, and Predict, as
// well as InletPartial finished by AddPower, equal Linear.Eval over
// [1, inlet, powerFrac] bit for bit.
func TestGPUTempSplitMatchesLinear(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	nSrv, gpus := 3, dc.Servers[0].GPU.GPUsPerServer
	var samples []GPUSample
	for i := 0; i < 50; i++ {
		inlet, pf := 18+rng.Float64()*12, rng.Float64()
		for sv := 0; sv < nSrv; sv++ {
			for g := 0; g < gpus; g++ {
				samples = append(samples, GPUSample{
					Server: sv, GPU: g, InletC: inlet, PowerFrac: pf,
					TempC: GPUTemp(dc.Servers[sv], g, inlet, pf) + rng.NormFloat64()*0.3,
				})
			}
		}
	}
	model, err := FitGPUTempModel(samples, nSrv, gpus)
	if err != nil {
		t.Fatal(err)
	}
	for sv := 0; sv < nSrv; sv++ {
		for g := 0; g < gpus; g++ {
			var feats [][]float64
			var temps []float64
			for _, s := range samples {
				if s.Server == sv && s.GPU == g {
					feats = append(feats, []float64{1, s.InletC, s.PowerFrac})
					temps = append(temps, s.TempC)
				}
			}
			lin, err := regress.FitLinear(feats, temps)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 20; k++ {
				inlet, pf := rng.Float64()*50-5, rng.Float64()*1.2-0.1
				want := math.Float64bits(lin.Eval([]float64{1, inlet, pf}))
				if got := model.Predict(sv, g, inlet, pf); math.Float64bits(got) != want {
					t.Fatalf("server %d gpu %d: Predict = %v, Linear.Eval = %v", sv, g, got, math.Float64frombits(want))
				}
				if got := model.AddPower(sv, g, model.InletPartial(sv, g, inlet), pf); math.Float64bits(got) != want {
					t.Fatalf("server %d gpu %d: AddPower(InletPartial) = %v, Linear.Eval = %v", sv, g, got, math.Float64frombits(want))
				}
			}
		}
	}
}

func TestGPUTempModelHeadroom(t *testing.T) {
	dc, _ := layout.New(layout.SmallConfig())
	rng := rand.New(rand.NewPCG(3, 3))
	gpus := dc.Servers[0].GPU.GPUsPerServer
	var samples []GPUSample
	for i := 0; i < 300; i++ {
		inlet := 18 + rng.Float64()*12
		pf := rng.Float64()
		for g := 0; g < gpus; g++ {
			samples = append(samples, GPUSample{
				Server: 0, GPU: g, InletC: inlet, PowerFrac: pf,
				TempC: GPUTemp(dc.Servers[0], g, inlet, pf),
			})
		}
	}
	model, err := FitGPUTempModel(samples, 1, gpus)
	if err != nil {
		t.Fatal(err)
	}
	// The headroom inversion must agree with the physics inversion.
	for g := 0; g < gpus; g++ {
		learned := model.HeadroomPowerFrac(0, g, 25, 85)
		truth := MaxPowerFrac(dc.Servers[0], g, 25, 85)
		if math.Abs(learned-truth) > 0.05 {
			t.Errorf("gpu %d headroom learned %v vs truth %v", g, learned, truth)
		}
		// Predicted temp at the headroom fraction must not exceed the limit.
		if temp := model.Predict(0, g, 25, learned); temp > 85.01 {
			t.Errorf("gpu %d predicted %v °C at headroom, above limit", g, temp)
		}
	}
	// Headroom at a cold inlet should be full power.
	if got := model.HeadroomPowerFrac(0, 0, -30, 85); got != 1 {
		t.Errorf("cold-inlet headroom = %v, want 1", got)
	}
	// Headroom at an absurd inlet should be zero.
	if got := model.HeadroomPowerFrac(0, 0, 120, 85); got != 0 {
		t.Errorf("hot-inlet headroom = %v, want 0", got)
	}
}

func TestFitGPUTempModelErrors(t *testing.T) {
	if _, err := FitGPUTempModel([]GPUSample{{Server: 5, GPU: 0}}, 2, 8); err == nil {
		t.Error("expected out-of-range error")
	}
	if _, err := FitGPUTempModel(nil, 1, 1); err == nil {
		t.Error("expected insufficient-data error")
	}
	few := []GPUSample{{Server: 0, GPU: 0, InletC: 20, PowerFrac: 0.5, TempC: 50}}
	if _, err := FitGPUTempModel(few, 1, 1); err == nil {
		t.Error("expected insufficient-data error for single sample")
	}
}

func TestFitAirflowModel(t *testing.T) {
	spec := layout.Spec(layout.A100)
	// Idle, full, and a few intermediate settings, as in the paper.
	loads := []float64{0, 0.25, 0.5, 0.75, 1}
	flows := make([]float64, len(loads))
	for i, l := range loads {
		flows[i] = Airflow(&spec, l)
	}
	m, err := FitAirflowModel(loads, flows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict(0)-spec.AirflowIdleCFM) > 1 {
		t.Errorf("idle airflow = %v, want %v", m.Predict(0), spec.AirflowIdleCFM)
	}
	if math.Abs(m.Predict(1)-spec.AirflowMaxCFM) > 1 {
		t.Errorf("max airflow = %v, want %v", m.Predict(1), spec.AirflowMaxCFM)
	}
	// Out-of-range load clamps.
	if m.Predict(2) != m.Predict(1) || m.Predict(-1) != m.Predict(0) {
		t.Error("airflow prediction must clamp load to [0,1]")
	}
}

func TestFitAirflowModelError(t *testing.T) {
	if _, err := FitAirflowModel([]float64{0}, []float64{100}); err == nil {
		t.Error("expected insufficient-data error")
	}
}
