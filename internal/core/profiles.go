// Package core implements the paper's contribution: the TAPAS scheduling
// framework (§4) — offline Profiles, the rule-based VM Allocator, the
// thermal/power-aware request Router, and the Instance Configurator — plus
// the thermal/power-oblivious Baseline (§5.1) and the six ablation variants
// combining the three TAPAS levers.
package core

import (
	"fmt"
	"sync"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/thermal"
)

// Profiles bundles the models TAPAS learns during the offline profiling
// phase (§4.5): per-server inlet surfaces (Eq. 1), per-GPU temperature
// models (Eq. 2), and each generation's airflow curve and server power
// polynomial. The LLM configuration profiles are per generation too
// (llm.DefaultProfile); cluster.State.ProfileFor reads a server's.
type Profiles struct {
	Inlet   *thermal.InletModel
	GPUTemp *thermal.GPUTempModel

	// Per-generation airflow/power fits, dense-indexed by layout.GPUModel.
	// Generations absent from the fleet alias the base generation's fit.
	airflowBy [layout.GPUModelCount]thermal.AirflowModel
	powerBy   [layout.GPUModelCount]power.Model
}

// AirflowFor returns the fitted airflow curve of a GPU generation.
func (p *Profiles) AirflowFor(m layout.GPUModel) *thermal.AirflowModel { return &p.airflowBy[m] }

// PowerFor returns the fitted server power polynomial of a GPU generation.
func (p *Profiles) PowerFor(m layout.GPUModel) power.Model { return p.powerBy[m] }

// BuildProfiles runs the offline profiling phase against a datacenter: it
// evaluates the physics over a grid of operating conditions — the benchmarks
// and validation tests operators run at deployment time — and fits the
// regression models the paper selects. The scheduling policies consume only
// these fitted models, never the physics directly.
func BuildProfiles(dc *layout.Datacenter) (*Profiles, error) {
	spec := layout.Spec(dc.Config.GPU)

	// Inlet model: sweep outside temperature and datacenter load.
	outsides := []float64{0, 5, 10, 14, 16, 20, 24, 26, 30, 35, 40}
	loads := []float64{0, 0.25, 0.5, 0.75, 1}
	inletModel, err := thermal.FitInletModel(outsides, loads, len(dc.Servers),
		func(sv int, outsideC, dcLoadFrac float64) float64 {
			return thermal.InletTemp(dc.Servers[sv], outsideC, dcLoadFrac, 0)
		})
	if err != nil {
		return nil, fmt.Errorf("core: profiling inlet model: %w", err)
	}

	// GPU temperature model: sweep inlet × GPU power per GPU.
	inlets := []float64{18, 22, 26, 30}
	fracs := []float64{0.1, 0.4, 0.7, 1.0}
	gpuModel, err := thermal.FitGPUTempModel(inlets, fracs, len(dc.Servers), spec.GPUsPerServer,
		func(sv, g int, inletC, powerFrac float64) float64 {
			return thermal.GPUTemp(dc.Servers[sv], g, inletC, powerFrac)
		})
	if err != nil {
		return nil, fmt.Errorf("core: profiling GPU temp model: %w", err)
	}

	// Airflow curve and server power polynomial, fitted per hardware
	// generation present in the fleet (heterogeneous fleets run the
	// deployment benchmarks once per generation).
	airflowModel, powerModel, err := fitServerModels(spec)
	if err != nil {
		return nil, err
	}
	prof := &Profiles{Inlet: inletModel, GPUTemp: gpuModel}
	for m := range prof.airflowBy {
		prof.airflowBy[m] = airflowModel
		prof.powerBy[m] = powerModel
	}
	for _, m := range dc.Models() {
		if m == spec.Model {
			continue
		}
		af, pw, err := fitServerModels(layout.Spec(m))
		if err != nil {
			return nil, err
		}
		prof.airflowBy[m] = af
		prof.powerBy[m] = pw
	}
	return prof, nil
}

// fitServerModels fits one generation's airflow curve and power polynomial
// from its deployment measurements.
func fitServerModels(spec layout.GPUSpec) (thermal.AirflowModel, power.Model, error) {
	// Airflow: idle, full, and intermediate fan measurements (§2.1).
	afLoads := []float64{0, 0.25, 0.5, 0.75, 1}
	afFlows := make([]float64, len(afLoads))
	for i, l := range afLoads {
		afFlows[i] = thermal.Airflow(&spec, l)
	}
	airflowModel, err := thermal.FitAirflowModel(afLoads, afFlows)
	if err != nil {
		return thermal.AirflowModel{}, power.Model{}, fmt.Errorf("core: profiling airflow model: %w", err)
	}

	// Server power polynomial over load.
	var pLoads, pPowers []float64
	for l := 0.0; l <= 1.001; l += 0.05 {
		pLoads = append(pLoads, l)
		pPowers = append(pPowers, power.ServerPowerAtUniformLoad(&spec, l))
	}
	powerModel, err := power.FitModel(pLoads, pPowers)
	if err != nil {
		return thermal.AirflowModel{}, power.Model{}, fmt.Errorf("core: profiling power model: %w", err)
	}
	return airflowModel, powerModel, nil
}

// profilesKey identifies a datacenter's content: generation is deterministic
// in the layout config, and the server count additionally captures
// oversubscription (AddRacks is deterministic too). Two datacenters with the
// same key hold identical heterogeneity, so they share one fitted Profiles.
type profilesKey struct {
	cfg     layout.Config
	servers int
}

type profilesEntry struct {
	once sync.Once
	prof *Profiles
	err  error
}

var (
	profilesMu    sync.Mutex
	profilesCache = map[profilesKey]*profilesEntry{}
	profilesOrder []profilesKey
)

// profilesCacheCap bounds the memoized profile set; experiment grids touch a
// handful of distinct layouts, so eviction only matters for long benchmark
// loops churning through scaled configs.
const profilesCacheCap = 16

// ProfilesFor returns the offline profiles for a datacenter, fitting them at
// most once per distinct layout. The returned Profiles are read-only and
// shared: concurrent runs over the same (or an identical) datacenter reuse
// one model set instead of refitting per run.
func ProfilesFor(dc *layout.Datacenter) (*Profiles, error) {
	key := profilesKey{cfg: dc.Config, servers: len(dc.Servers)}
	profilesMu.Lock()
	e, ok := profilesCache[key]
	if !ok {
		if len(profilesOrder) >= profilesCacheCap {
			oldest := profilesOrder[0]
			profilesOrder = profilesOrder[1:]
			delete(profilesCache, oldest)
		}
		e = &profilesEntry{}
		profilesCache[key] = e
		profilesOrder = append(profilesOrder, key)
	}
	profilesMu.Unlock()
	e.once.Do(func() { e.prof, e.err = BuildProfiles(dc) })
	return e.prof, e.err
}
