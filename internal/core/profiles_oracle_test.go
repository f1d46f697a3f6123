package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/thermal"
)

// The offline profiling phase as it was before the fits shared their
// designs, kept verbatim as the oracle: one sample value per observation, a
// feature row per sample, and one least-squares solve (normal equations and
// elimination) per server segment and per GPU.

type oracleInletSample struct {
	OutsideC   float64
	DCLoadFrac float64
	InletC     []float64
}

type oracleGPUSample struct {
	Server    int
	GPU       int
	InletC    float64
	PowerFrac float64
	TempC     float64
}

type oracleProfiles struct {
	inlet     []regress.Surface
	gpu       []float64
	airflowBy [layout.GPUModelCount]thermal.AirflowModel
	powerBy   [layout.GPUModelCount]power.Model
}

func oracleBuildProfiles(dc *layout.Datacenter) (*oracleProfiles, error) {
	spec := layout.Spec(dc.Config.GPU)

	outsides := []float64{0, 5, 10, 14, 16, 20, 24, 26, 30, 35, 40}
	loads := []float64{0, 0.25, 0.5, 0.75, 1}
	var inletSamples []oracleInletSample
	for _, o := range outsides {
		for _, l := range loads {
			s := oracleInletSample{OutsideC: o, DCLoadFrac: l, InletC: make([]float64, len(dc.Servers))}
			for i, srv := range dc.Servers {
				s.InletC[i] = thermal.InletTemp(srv, o, l, 0)
			}
			inletSamples = append(inletSamples, s)
		}
	}
	inlet, err := oracleFitInletModel(inletSamples, len(dc.Servers))
	if err != nil {
		return nil, err
	}

	inlets := []float64{18, 22, 26, 30}
	fracs := []float64{0.1, 0.4, 0.7, 1.0}
	var gpuSamples []oracleGPUSample
	for _, srv := range dc.Servers {
		for g := 0; g < spec.GPUsPerServer; g++ {
			for _, in := range inlets {
				for _, f := range fracs {
					gpuSamples = append(gpuSamples, oracleGPUSample{
						Server: srv.ID, GPU: g, InletC: in, PowerFrac: f,
						TempC: thermal.GPUTemp(srv, g, in, f),
					})
				}
			}
		}
	}
	gpu, err := oracleFitGPUTempModel(gpuSamples, len(dc.Servers), spec.GPUsPerServer)
	if err != nil {
		return nil, err
	}

	prof := &oracleProfiles{inlet: inlet, gpu: gpu}
	af, pw, err := oracleFitServerModels(spec)
	if err != nil {
		return nil, err
	}
	for m := range prof.airflowBy {
		prof.airflowBy[m], prof.powerBy[m] = af, pw
	}
	for _, m := range dc.Models() {
		if m == spec.Model {
			continue
		}
		af, pw, err := oracleFitServerModels(layout.Spec(m))
		if err != nil {
			return nil, err
		}
		prof.airflowBy[m], prof.powerBy[m] = af, pw
	}
	return prof, nil
}

func oracleFitServerModels(spec layout.GPUSpec) (thermal.AirflowModel, power.Model, error) {
	afLoads := []float64{0, 0.25, 0.5, 0.75, 1}
	afFlows := make([]float64, len(afLoads))
	for i, l := range afLoads {
		afFlows[i] = thermal.Airflow(&spec, l)
	}
	af, err := oracleFitPoly(afLoads, afFlows, 1)
	if err != nil {
		return thermal.AirflowModel{}, power.Model{}, err
	}
	var pLoads, pPowers []float64
	for l := 0.0; l <= 1.001; l += 0.05 {
		pLoads = append(pLoads, l)
		pPowers = append(pPowers, power.ServerPowerAtUniformLoad(&spec, l))
	}
	pw, err := oracleFitPoly(pLoads, pPowers, 3)
	if err != nil {
		return thermal.AirflowModel{}, power.Model{}, err
	}
	return thermal.AirflowModel{IdleCFM: af.Eval(0), MaxCFM: af.Eval(1)}, power.Model{Poly: pw}, nil
}

func oracleFitInletModel(samples []oracleInletSample, nServers int) ([]regress.Surface, error) {
	if len(samples) == 0 {
		return nil, regress.ErrInsufficientData
	}
	xs := make([]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		if len(s.InletC) != nServers {
			return nil, fmt.Errorf("sample %d has %d servers, want %d", i, len(s.InletC), nServers)
		}
		xs[i] = s.OutsideC
		ys[i] = s.DCLoadFrac
	}
	perServer := make([]regress.Surface, nServers)
	zs := make([]float64, len(samples))
	for sv := 0; sv < nServers; sv++ {
		for i, s := range samples {
			zs[i] = s.InletC[sv]
		}
		surf, err := oracleFitSurface(xs, ys, zs, thermal.DefaultKnots)
		if err != nil {
			return nil, fmt.Errorf("fitting inlet model for server %d: %w", sv, err)
		}
		perServer[sv] = surf
	}
	return perServer, nil
}

func oracleFitGPUTempModel(samples []oracleGPUSample, nServers, gpusPerServer int) ([]float64, error) {
	feats := make([][][]float64, nServers*gpusPerServer)
	targets := make([][]float64, nServers*gpusPerServer)
	for _, s := range samples {
		if s.Server < 0 || s.Server >= nServers || s.GPU < 0 || s.GPU >= gpusPerServer {
			return nil, fmt.Errorf("GPU sample out of range: server %d gpu %d", s.Server, s.GPU)
		}
		idx := s.Server*gpusPerServer + s.GPU
		feats[idx] = append(feats[idx], []float64{1, s.InletC, s.PowerFrac})
		targets[idx] = append(targets[idx], s.TempC)
	}
	weights := make([]float64, 0, nServers*gpusPerServer*3)
	for sv := 0; sv < nServers; sv++ {
		for g := 0; g < gpusPerServer; g++ {
			idx := sv*gpusPerServer + g
			if len(feats[idx]) < 6 {
				return nil, fmt.Errorf("only %d samples for server %d gpu %d: %w",
					len(feats[idx]), sv, g, regress.ErrInsufficientData)
			}
			w, err := oracleLeastSquares(feats[idx], targets[idx])
			if err != nil {
				return nil, fmt.Errorf("fitting gpu temp model server %d gpu %d: %w", sv, g, err)
			}
			weights = append(weights, w...)
		}
	}
	return weights, nil
}

func oracleFitSurface(x, y, z []float64, knots []float64) (regress.Surface, error) {
	if len(x) != len(y) || len(x) != len(z) {
		return regress.Surface{}, fmt.Errorf("surface sample lengths differ: %d/%d/%d", len(x), len(y), len(z))
	}
	if !sort.Float64sAreSorted(knots) {
		return regress.Surface{}, fmt.Errorf("knots must be ascending")
	}
	nseg := len(knots) + 1
	segF := make([][][]float64, nseg)
	segZ := make([][]float64, nseg)
	for i, xi := range x {
		s := sort.SearchFloat64s(knots, xi)
		segF[s] = append(segF[s], []float64{1, xi, xi * xi, y[i]})
		segZ[s] = append(segZ[s], z[i])
	}
	pieces := make([]regress.Linear, nseg)
	fitted := make([]bool, nseg)
	anyFit := false
	for s := 0; s < nseg; s++ {
		if len(segF[s]) >= 8 { // 4 params, demand 2× samples for stability
			w, err := oracleLeastSquares(segF[s], segZ[s])
			if err == nil {
				pieces[s], fitted[s] = regress.Linear{Weights: w}, true
				anyFit = true
			}
		}
	}
	if !anyFit {
		return regress.Surface{}, regress.ErrInsufficientData
	}
	for s := 1; s < nseg; s++ {
		if !fitted[s] && fitted[s-1] {
			pieces[s], fitted[s] = pieces[s-1], true
		}
	}
	for s := nseg - 2; s >= 0; s-- {
		if !fitted[s] && fitted[s+1] {
			pieces[s], fitted[s] = pieces[s+1], true
		}
	}
	return regress.Surface{Knots: append([]float64(nil), knots...), Pieces: pieces}, nil
}

func oracleFitPoly(x, y []float64, degree int) (regress.Poly, error) {
	design := make([][]float64, len(x))
	for i, xi := range x {
		row := make([]float64, degree+1)
		v := 1.0
		for j := 0; j <= degree; j++ {
			row[j] = v
			v *= xi
		}
		design[i] = row
	}
	coeffs, err := oracleLeastSquares(design, y)
	if err != nil {
		return regress.Poly{}, err
	}
	return regress.Poly{Coeffs: coeffs}, nil
}

func oracleLeastSquares(x [][]float64, y []float64) ([]float64, error) {
	m := len(x)
	if m == 0 || len(y) != m {
		return nil, fmt.Errorf("design matrix has %d rows, y has %d", m, len(y))
	}
	p := len(x[0])
	if m < p {
		return nil, regress.ErrInsufficientData
	}
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("ragged design matrix at row %d", r)
		}
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	const ridge = 1e-9
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
		xtx[i][i] += ridge * (1 + xtx[i][i])
	}
	return oracleSolveLinear(xtx, xty)
}

func oracleSolveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("bad system dimensions %dx%d", len(a), len(b))
	}
	for _, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("non-square matrix row len %d != %d", len(row), n)
		}
	}
	for col := 0; col < n; col++ {
		// Partial pivot: find the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(a[r][col]); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, regress.ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			factor := a[r][col] * inv
			if factor == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= factor * a[col][c]
			}
			b[r] -= factor * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for c := r + 1; c < n; c++ {
			sum -= a[r][c] * x[c]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}

// diffBits returns a description of the first weight whose bits differ, or
// "" when every weight matches.
func diffBits(what string, got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%s: %d weights, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
	return ""
}

// TestBuildProfilesMatchesOracle checks that every fitted weight of
// BuildProfiles — each server's inlet surface, each GPU's temperature model,
// and each generation's airflow curve and power polynomial — equals the
// per-sample fit kept above by math.Float64bits, on uniform, oversubscribed,
// scaled, reseeded and mixed A100/H100 layouts.
func TestBuildProfilesMatchesOracle(t *testing.T) {
	mixed := layout.SmallConfig()
	mixed.Aisles, mixed.MixGPU, mixed.MixFraction = 2, layout.H100, 0.5
	scaled := layout.DefaultConfig()
	scaled.FleetScale = 2
	type layoutCase struct {
		name     string
		cfg      layout.Config
		addRacks float64
		models   int // GPU generations in the fleet
	}
	cases := []layoutCase{
		{"small", layout.SmallConfig(), 0, 1},
		{"large", layout.DefaultConfig(), 0, 1},
		{"large+30% racks", layout.DefaultConfig(), 0.3, 1},
		{"fleet_scale 2", scaled, 0, 1},
		{"mixed A100/H100", mixed, 0, 2},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := layout.DefaultConfig()
		cfg.Seed = seed
		cases = append(cases, layoutCase{fmt.Sprintf("large seed %d", seed), cfg, 0, 1})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dc, err := layout.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dc.AddRacks(tc.addRacks)
			if got := len(dc.Models()); got != tc.models {
				t.Fatalf("layout has %d GPU generations, want %d", got, tc.models)
			}
			want, err := oracleBuildProfiles(dc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildProfiles(dc)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Inlet.PerServer) != len(dc.Servers) || len(want.inlet) != len(dc.Servers) {
				t.Fatalf("%d inlet surfaces, oracle %d, servers %d", len(got.Inlet.PerServer), len(want.inlet), len(dc.Servers))
			}
			for sv, ws := range want.inlet {
				gs := got.Inlet.PerServer[sv]
				if d := diffBits(fmt.Sprintf("server %d knots", sv), gs.Knots, ws.Knots); d != "" {
					t.Fatal(d)
				}
				if len(gs.Pieces) != len(ws.Pieces) {
					t.Fatalf("server %d: %d pieces, oracle %d", sv, len(gs.Pieces), len(ws.Pieces))
				}
				for s := range ws.Pieces {
					if d := diffBits(fmt.Sprintf("server %d segment %d", sv, s), gs.Pieces[s].Weights, ws.Pieces[s].Weights); d != "" {
						t.Fatal(d)
					}
				}
			}
			if got.GPUTemp.GPUsPerServer != layout.Spec(tc.cfg.GPU).GPUsPerServer {
				t.Fatalf("GPUsPerServer = %d", got.GPUTemp.GPUsPerServer)
			}
			if d := diffBits("GPU weights", got.GPUTemp.Weights, want.gpu); d != "" {
				t.Fatal(d)
			}
			for m := layout.GPUModel(0); m < layout.GPUModelCount; m++ {
				af, waf := got.AirflowFor(m), want.airflowBy[m]
				if d := diffBits(fmt.Sprintf("%v airflow", m), []float64{af.IdleCFM, af.MaxCFM}, []float64{waf.IdleCFM, waf.MaxCFM}); d != "" {
					t.Fatal(d)
				}
				if d := diffBits(fmt.Sprintf("%v power", m), got.PowerFor(m).Poly.Coeffs, want.powerBy[m].Poly.Coeffs); d != "" {
					t.Fatal(d)
				}
			}
		})
	}
}
