package thermal

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/regress"
)

// grid returns n evenly spaced points from lo to hi inclusive.
func grid(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return xs
}

func TestFitInletModelMAEUnderOneDegree(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	// Noisy sensor readings of the physics over the profiling grid.
	model, err := FitInletModel(grid(-2, 36, 39), grid(0, 1, 11), len(dc.Servers),
		func(sv int, outside, load float64) float64 {
			return InletTemp(dc.Servers[sv], outside, load, 0) + rng.NormFloat64()*0.2
		})
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

// TestFitInletModelMatchesFitSurface pins the grid fit to regress.FitSurface
// over the same observations in grid order (outside outer, load inner), bit
// for bit, including a segment that inherits its neighbour's piece. The
// servers share one copy of the knots, which is not DefaultKnots itself.
func TestFitInletModelMatchesFitSurface(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// No outside temperature above 25 °C: the top segment has no rows.
	outsides, loads := []float64{0, 7, 12, 15, 17, 21, 25}, grid(0, 1, 4)
	nSrv := 5
	// Deterministic sensor noise, so FitSurface sees the same observations.
	obs := func(sv int, outside, load float64) float64 {
		return InletTemp(dc.Servers[sv], outside, load, 0) + 0.2*math.Sin(float64(sv)*7.3+outside*1.7+load*11.1)
	}
	model, err := FitInletModel(outsides, loads, nSrv, obs)
	if err != nil {
		t.Fatal(err)
	}
	for sv := 0; sv < nSrv; sv++ {
		var xs, ys, zs []float64
		for _, o := range outsides {
			for _, l := range loads {
				xs, ys, zs = append(xs, o), append(ys, l), append(zs, obs(sv, o, l))
			}
		}
		want, err := regress.FitSurface(xs, ys, zs, DefaultKnots)
		if err != nil {
			t.Fatal(err)
		}
		got := model.PerServer[sv]
		if len(got.Pieces) != len(want.Pieces) || len(got.Knots) != len(want.Knots) {
			t.Fatalf("server %d: %d pieces over %v, want %d over %v", sv, len(got.Pieces), got.Knots, len(want.Pieces), want.Knots)
		}
		for s := range want.Pieces {
			for k, w := range want.Pieces[s].Weights {
				if math.Float64bits(got.Pieces[s].Weights[k]) != math.Float64bits(w) {
					t.Fatalf("server %d segment %d weight %d = %v, FitSurface = %v", sv, s, k, got.Pieces[s].Weights[k], w)
				}
			}
		}
		if &got.Knots[0] == &DefaultKnots[0] || &got.Knots[0] != &model.PerServer[0].Knots[0] {
			t.Errorf("server %d: knots must be one copy of DefaultKnots shared by the model", sv)
		}
	}
}

func TestFitInletModelErrors(t *testing.T) {
	fit := func(outsides, loads []float64) error {
		_, err := FitInletModel(outsides, loads, 3, func(int, float64, float64) float64 { return 20 })
		return err
	}
	if err := fit(nil, nil); !errors.Is(err, regress.ErrInsufficientData) {
		t.Errorf("empty grid: err = %v, want ErrInsufficientData", err)
	}
	// Seven points: no segment reaches the 8 rows a piece needs.
	if err := fit([]float64{10, 20, 30}, []float64{0, 1}); !errors.Is(err, regress.ErrInsufficientData) {
		t.Errorf("sparse grid: err = %v, want ErrInsufficientData", err)
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
	model, err := FitGPUTempModel(grid(18, 28, 20), grid(0, 1, 20), nSrv, gpus,
		func(sv, g int, inlet, pf float64) float64 {
			return GPUTemp(dc.Servers[sv], g, inlet, pf) + rng.NormFloat64()*0.3
		})
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
// regress.Linear models: each GPU's weights are regress.FitLinear over its
// own observations in grid order (inlet outer, power inner), and Predict, as
// well as InletPartial finished by AddPower, equal Linear.Eval over
// [1, inlet, powerFrac] bit for bit.
func TestGPUTempSplitMatchesLinear(t *testing.T) {
	dc, err := layout.New(layout.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	nSrv, gpus := 3, dc.Servers[0].GPU.GPUsPerServer
	inlets := []float64{18 + rng.Float64()*4, 23 + rng.Float64()*3, 27 + rng.Float64()*3}
	fracs := []float64{rng.Float64() * 0.3, 0.3 + rng.Float64()*0.4, 0.7 + rng.Float64()*0.3}
	// Deterministic sensor noise, so FitLinear sees the same observations.
	obs := func(sv, g int, inlet, pf float64) float64 {
		return GPUTemp(dc.Servers[sv], g, inlet, pf) + 0.3*math.Sin(float64(sv*gpus+g)*5.1+inlet*0.9+pf*13.7)
	}
	model, err := FitGPUTempModel(inlets, fracs, nSrv, gpus, obs)
	if err != nil {
		t.Fatal(err)
	}
	for sv := 0; sv < nSrv; sv++ {
		for g := 0; g < gpus; g++ {
			var feats [][]float64
			var temps []float64
			for _, inlet := range inlets {
				for _, pf := range fracs {
					feats = append(feats, []float64{1, inlet, pf})
					temps = append(temps, obs(sv, g, inlet, pf))
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
	gpus := dc.Servers[0].GPU.GPUsPerServer
	model, err := FitGPUTempModel(grid(18, 30, 15), grid(0, 1, 20), 1, gpus,
		func(sv, g int, inlet, pf float64) float64 { return GPUTemp(dc.Servers[sv], g, inlet, pf) })
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
	fit := func(inlets, fracs []float64) error {
		_, err := FitGPUTempModel(inlets, fracs, 1, 1, func(int, int, float64, float64) float64 { return 50 })
		return err
	}
	if err := fit(nil, nil); !errors.Is(err, regress.ErrInsufficientData) {
		t.Errorf("empty grid: err = %v, want ErrInsufficientData", err)
	}
	// Five points, below the 6 (2× parameters) a GPU needs.
	if err := fit([]float64{20}, []float64{0, 0.25, 0.5, 0.75, 1}); !errors.Is(err, regress.ErrInsufficientData) {
		t.Errorf("five-point grid: err = %v, want ErrInsufficientData", err)
	}
	if err := fit([]float64{20, 30}, []float64{0, 0.5, 1}); err != nil {
		t.Errorf("six-point grid: %v", err)
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
