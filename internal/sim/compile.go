package sim

import (
	"fmt"
	"math"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/thermal"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/units"
)

// CompiledScenario holds every run-invariant artifact of a Scenario, built
// once by a CompileCache (Compile uses a private one) and shared — strictly
// read-only — by any number of subsequent (including concurrent) runs: the
// generated datacenter layout, the workload trace, flattened
// per-(server,GPU) thermal coefficient tables, and the seeded "previous
// week" demand history. Each Run gets its own fresh cluster.State, which
// reads each generation's serving profile (llm.DefaultProfile), and builds
// its own outside-temperature series from its Region and StartOffset, so
// runs never observe each other.
//
// Experiment grids that evaluate many policies, failure schedules or
// climates over the same fleet and workload compile once and run many times
// through ForScenario; reports are byte-identical to compiling per run.
type CompiledScenario struct {
	// Scenario is the descriptor the artifacts were compiled from, carrying
	// the runtime-only fields of the run ForScenario adopted. Like DC and
	// Workload it is read-only: a run varies only through ForScenario, and
	// a different compile-relevant field needs a compile of its own.
	Scenario Scenario

	DC       *layout.Datacenter
	Workload *trace.Workload
	Coeffs   *thermal.Coeffs

	// The tick kernel's tables, embedded by value so that every kernel read
	// is one load from the compiled scenario.
	layoutTables
	workloadTables

	// key is Scenario's content key, stamped by the cache that compiled it.
	key CacheKey
}

// Compile builds the run-invariant artifacts of a scenario through a
// CompileCache private to the call, so one code path keys and builds every
// compilation. The returned object is immutable; call Run on it any number
// of times, from any number of goroutines. Repeated what-ifs that want to
// skip compiling go through a shared CompileCache, which memoizes whole
// compilations (by ScenarioKey) and the layout artifacts below.
func Compile(sc Scenario) (*CompiledScenario, error) {
	return NewCompileCache(1).Compile(sc)
}

// layoutArtifacts groups every compiled artifact derived solely from the
// layout config (plus oversubscription): the generated datacenter, its
// thermal coefficients, and the tables the tick kernel reads. One instance
// is shared read-only by every compiled scenario with the same layout — a
// workload sweep builds it once.
type layoutArtifacts struct {
	dc     *layout.Datacenter
	coeffs *thermal.Coeffs
	layoutTables
}

// layoutTables are the per-server and per-generation tables derived from
// the layout.
type layoutTables struct {
	// Per-generation artifacts for heterogeneous fleets, dense-indexed by
	// layout.GPUModel; absent models hold zero values. The tick kernel
	// finds a server's generation, row and aisle in the layout's server
	// index (layout.Datacenter.ServerModel, ServerRow, ServerAisle).
	// fleetTDPW is the aggregate server TDP.
	specBy     [layout.GPUModelCount]layout.GPUSpec
	idleWBy    [layout.GPUModelCount]float64
	idleFracBy [layout.GPUModelCount]float64
	fleetTDPW  float64

	// Idle tick-kernel constants, precomputed with the exact operation
	// sequence the fused tick loop runs for an idle uncapped server, so the
	// kernel's idle path (idleServer) substitutes them bit for bit:
	// idleTickWBy is the server power the power pass produces at all-idle
	// GPU fractions, and idleAirflowBy the fan airflow the airflow pass
	// derives from that power.
	idleTickWBy   [layout.GPUModelCount]float64
	idleAirflowBy [layout.GPUModelCount]float64

	// Per-server maxima over the GPU block's thermal coefficients. Rounding
	// is monotone, so inlet + srvMaxBias + srvMaxGain*cf is a floating-point
	// upper bound on every GPU temperature the fused loop can produce at
	// power fraction cf; when that bound stays at or below the throttle
	// limit the kernel runs the branch-free loop variant.
	srvMaxBias []float64
	srvMaxGain []float64
}

// workloadTables are the run-invariant tables derived from the workload.
type workloadTables struct {
	// requests is the transformed, validated request log of request-level
	// replay scenarios (Scenario.Requests after the transform chain); nil
	// in binned mode.
	requests []llm.Request

	// Seeded history estimates (§3.1), copied into each run's state.
	customerPeak map[int]float64
	endpointPeak map[int]float64

	// vmPhase maps a VM index to an entry of phaseBy — the distinct
	// PhaseHours values among the workload's un-warped IaaS load patterns
	// (phases are shared per customer, so there are few). The tick kernel
	// computes each phase's diurnal sine once per tick instead of once per
	// IaaS server. -1 marks patterns that must go through LoadPattern.At
	// (non-IaaS, or time-warped by a trace transform).
	vmPhase []int32
	phaseBy []float64
}

// buildLayoutArtifacts generates the datacenter and precomputes the tables
// the tick kernel reads from it.
func buildLayoutArtifacts(lc layout.Config, oversubscribe float64) (*layoutArtifacts, error) {
	dc, err := layout.New(lc)
	if err != nil {
		return nil, err
	}
	if oversubscribe > 0 {
		dc.AddRacks(oversubscribe)
	}
	spec := layout.Spec(dc.Config.GPU)
	n := len(dc.Servers)
	la := &layoutArtifacts{
		dc:     dc,
		coeffs: thermal.CompileCoeffs(dc.Servers, spec.GPUsPerServer),
		layoutTables: layoutTables{
			srvMaxBias: make([]float64, n),
			srvMaxGain: make([]float64, n),
		},
	}
	for i := range dc.Servers {
		base := i * spec.GPUsPerServer
		maxB, maxG := 0.0, 0.0
		for g := 0; g < spec.GPUsPerServer; g++ {
			if b := la.coeffs.BiasC[base+g]; b > maxB {
				maxB = b
			}
			if gn := la.coeffs.GainC[base+g]; gn > maxG {
				maxG = gn
			}
		}
		la.srvMaxBias[i] = maxB
		la.srvMaxGain[i] = maxG
	}
	for _, s := range dc.Servers {
		la.fleetTDPW += s.GPU.ServerTDPW
	}
	// One spec and idle-power table per hardware generation present.
	for _, m := range dc.Models() {
		ms := layout.Spec(m)
		la.specBy[m] = ms
		la.idleWBy[m] = power.ServerPowerAtUniformLoad(&ms, 0)
		la.idleFracBy[m] = ms.GPUIdleW / ms.GPUTDPW
		// The tick kernel's idle constants replay the fused loop's exact
		// arithmetic — a per-GPU accumulation at the idle fraction, then
		// the server-power and airflow passes — so the idle fast paths are
		// bit-identical to the full sweep. The GPU count is the state's
		// uniform per-server stride, as in the kernel.
		mp := &la.specBy[m]
		sum := 0.0
		for g := 0; g < spec.GPUsPerServer; g++ {
			sum += la.idleFracBy[m] * mp.GPUTDPW
		}
		la.idleTickWBy[m] = power.ServerPower(mp, sum, 0, thermal.FanFrac(0))
		heatFrac := units.Clamp01((la.idleTickWBy[m] - la.idleWBy[m]) / (mp.ServerTDPW - la.idleWBy[m]))
		la.idleAirflowBy[m] = thermal.Airflow(mp, heatFrac)
	}
	// Pre-warm the lazily memoized aisle rosters: policies call
	// Aisle.Servers() in capping paths, and the memo write would race when
	// runs share the layout.
	for _, a := range dc.Aisles {
		a.Servers()
	}
	return la, nil
}

// compileOn materializes the scenario's workload over a built layout, derives
// the workload tables (request log, seeded history, shared-phase index) and
// assembles the compiled scenario under its content key. The layout
// artifacts may come from a fresh build or the cache's layout level — every
// build of the same layout key is byte-identical, so the result never
// depends on provenance.
func compileOn(sc Scenario, key CacheKey, la *layoutArtifacts) (*CompiledScenario, error) {
	w, err := workloadFor(sc, len(la.dc.Servers))
	if err != nil {
		return nil, err
	}
	cs := &CompiledScenario{
		Scenario:     sc,
		DC:           la.dc,
		Workload:     w,
		Coeffs:       la.coeffs,
		layoutTables: la.layoutTables,
		key:          key,
	}
	wt := &cs.workloadTables
	wt.requests, err = requestsFor(sc, w)
	if err != nil {
		return nil, err
	}
	wt.vmPhase = make([]int32, len(w.VMs))
	phaseIdx := make(map[float64]int32)
	for i, vm := range w.VMs {
		wt.vmPhase[i] = -1
		if vm.Kind != trace.IaaS {
			continue
		}
		if ts := vm.Load.TimeScale; ts > 0 && ts != 1 {
			continue
		}
		idx, ok := phaseIdx[vm.Load.PhaseHours]
		if !ok {
			idx = int32(len(wt.phaseBy))
			wt.phaseBy = append(wt.phaseBy, vm.Load.PhaseHours)
			phaseIdx[vm.Load.PhaseHours] = idx
		}
		wt.vmPhase[i] = idx
	}
	wt.customerPeak, wt.endpointPeak = compileHistory(w)
	return cs, nil
}

// checkWindow rejects a start offset the weather series cannot cover: a run
// builds it over [0, StartOffset+Duration], so a negative offset, or one
// whose window end overflows, would size it negative. The cache (which
// Compile goes through) and Run both check it, because ForScenario and a
// cache hit carry the offset to Run without compiling.
func checkWindow(sc Scenario) error {
	if sc.StartOffset < 0 {
		return fmt.Errorf("sim: negative start offset %v", sc.StartOffset)
	}
	if sc.StartOffset > math.MaxInt64-max(sc.Duration, 0) {
		return fmt.Errorf("sim: start offset %v plus duration %v overflows", sc.StartOffset, sc.Duration)
	}
	return nil
}

// checkOversubscribe rejects an oversubscription ratio layout.AddRacks
// cannot turn into racks: NaN, infinite or negative. The cache (which
// Compile goes through) and GenerateWorkload check it before they build a
// layout.
func checkOversubscribe(sc Scenario) error {
	if r := sc.Oversubscribe; !(r >= 0) || math.IsInf(r, 1) {
		return fmt.Errorf("sim: oversubscription ratio %v is not a finite ratio of at least 0", r)
	}
	return nil
}

// workloadFor materializes the workload a scenario simulates over a fleet of
// the given size: the replayed trace when set (transformed by the scenario's
// chain, validated against the fleet), otherwise a synthetic trace.Generate
// run over that fleet and the scenario's Duration (the generator config's
// own Servers and Duration are overwritten, so it records the run's).
func workloadFor(sc Scenario, servers int) (*trace.Workload, error) {
	if sc.Trace == nil {
		if len(sc.TraceTransforms) > 0 {
			return nil, fmt.Errorf("sim: TraceTransforms requires a replay Trace; transforms reshape recorded workloads (synthetic workloads are reshaped by their generation config)")
		}
		wc := sc.Workload
		wc.Servers, wc.Duration = servers, sc.Duration
		return trace.Generate(wc)
	}
	w, err := sc.TraceTransforms.Apply(sc.Trace)
	if err != nil {
		return nil, fmt.Errorf("sim: applying trace transforms: %w", err)
	}
	if err := validateReplay(w, servers, sc.Duration); err != nil {
		return nil, err
	}
	return w, nil
}

// requestsFor materializes the request log a request-level replay scenario
// admits: the scenario's log transformed by its chain (time_warp rescales
// arrivals, demand_scale thins or replicates — the ops that reshape endpoint
// sets are rejected, see transform.Chain.ApplyRequests), then validated
// against the workload the engine will serve it with by
// trace.ValidateRequests, the per-request check the request CSV reader and
// writer apply.
func requestsFor(sc Scenario, w *trace.Workload) ([]llm.Request, error) {
	if len(sc.Requests) == 0 {
		return nil, nil
	}
	reqs, err := sc.TraceTransforms.ApplyRequests(sc.Requests)
	if err != nil {
		return nil, fmt.Errorf("sim: applying transforms to the request log: %w", err)
	}
	if err := trace.ValidateRequests(reqs, len(w.Endpoints)); err != nil {
		return nil, fmt.Errorf("sim: request log invalid: %w", err)
	}
	return reqs, nil
}

// validateReplay checks that a recorded (and possibly transformed) workload
// fits the scenario it is replayed under, so a stale trace fails loudly
// instead of silently simulating a different cluster. The structural checks
// are trace.Workload.Validate, the per-record checks trace.ReadWorkloadCSV
// applies to each row, so a trace built programmatically meets the same
// rules as a loaded one.
func validateReplay(w *trace.Workload, servers int, duration time.Duration) error {
	if err := w.Validate(); err != nil {
		return fmt.Errorf("sim: replay trace invalid: %w", err)
	}
	if w.Config.Servers != servers {
		return fmt.Errorf("sim: replay trace was recorded for %d servers but the layout provides %d; replay against the layout (and oversubscription) the trace was recorded with", w.Config.Servers, servers)
	}
	if w.Config.Duration > 0 && duration > w.Config.Duration {
		return fmt.Errorf("sim: scenario duration %v exceeds the replay trace's recorded window %v; re-record a longer trace or shorten the run", duration, w.Config.Duration)
	}
	return nil
}

// GenerateWorkload materializes the workload a scenario would simulate —
// the unit cmd/tapas-trace records. The fleet size comes from the scenario's
// layout (including oversubscribed racks), exactly as Compile computes it,
// so a recorded trace replays against the same scenario byte-identically.
func GenerateWorkload(sc Scenario) (*trace.Workload, error) {
	if err := checkOversubscribe(sc); err != nil {
		return nil, err
	}
	dc, err := layout.New(sc.Layout)
	if err != nil {
		return nil, err
	}
	if sc.Oversubscribe > 0 {
		dc.AddRacks(sc.Oversubscribe)
	}
	return workloadFor(sc, len(dc.Servers))
}

// ForScenario returns a copy of the compilation, sharing every artifact,
// that runs with sc's runtime-only fields: Tick, Failures, Observer, the
// climate (Region, StartOffset) and the policy parameters SLOSched and
// PowerGov. The copy keeps the compilation's own value of every other
// field — exactly the fields ScenarioKey hashes — so it always matches its
// artifacts; a scenario that differs in one of them needs its own compile.
func (cs *CompiledScenario) ForScenario(sc Scenario) *CompiledScenario {
	cp := *cs
	s := &cp.Scenario
	s.Tick, s.Failures, s.Observer = sc.Tick, sc.Failures, sc.Observer
	s.Region, s.StartOffset = sc.Region, sc.StartOffset
	s.SLOSched, s.PowerGov = sc.SLOSched, sc.PowerGov
	return &cp
}

// Key returns the content key the scenario was compiled under (ScenarioKey
// of its compile-relevant fields): compilations with equal keys are
// interchangeable, so campaigns count distinct compilations by it.
func (cs *CompiledScenario) Key() CacheKey { return cs.key }

// Run executes one simulation of the compiled scenario under a policy. Safe
// for concurrent use: every call builds a private cluster.State around the
// shared read-only artifacts.
func (cs *CompiledScenario) Run(pol Policy) (*Result, error) {
	if err := checkTicks(cs.Scenario); err != nil {
		return nil, err
	}
	if err := checkWindow(cs.Scenario); err != nil {
		return nil, err
	}
	r, err := cs.newRunner(pol)
	if err != nil {
		return nil, err
	}
	return r.run(), nil
}

// checkTicks rejects a scenario that would run no tick: a non-positive tick
// or a duration shorter than one tick.
func checkTicks(sc Scenario) error {
	if sc.Tick <= 0 {
		return fmt.Errorf("sim: non-positive tick %v", sc.Tick)
	}
	if sc.Duration < sc.Tick {
		return fmt.Errorf("sim: duration %v is shorter than one tick (%v); the run would have no ticks", sc.Duration, sc.Tick)
	}
	return nil
}

// compileHistory pre-computes the per-customer and per-endpoint demand
// estimates from the week preceding the simulation window — the "previous
// week" history the paper's placement predictions rely on (§3.1, Fig. 14).
// Policies that ignore history (the Baseline) are unaffected.
//
// Load shapes are shared per customer, so the 7×24-hour peak scan runs once
// per unique customer on its first VM's pattern instead of once per VM —
// workloads hold ~40 customers but thousands of VMs. The patterns do carry
// small per-VM noise (±0.09 load fraction), which a max-over-all-VMs would
// fold in; the single-VM estimate sits at most that far below it, well
// within the prediction-error budget these seeds feed (§4.1 assumes peak
// outright when history is missing). VM order is deterministic, so the
// estimate is too.
func compileHistory(w *trace.Workload) (customerPeak, endpointPeak map[int]float64) {
	customerPeak = make(map[int]float64)
	endpointPeak = make(map[int]float64)
	for _, vm := range w.VMs {
		if vm.Kind != trace.IaaS {
			continue
		}
		if _, seen := customerPeak[vm.Customer]; seen {
			continue
		}
		peak := 0.0
		for h := 0; h < 7*24; h++ {
			if l := vm.Load.At(time.Duration(h) * time.Hour); l > peak {
				peak = l
			}
		}
		customerPeak[vm.Customer] = peak
	}
	for _, ep := range w.Endpoints {
		peak := 0.0
		for h := 0; h < 7*24; h++ {
			p, o := ep.DemandTokens(time.Duration(h)*time.Hour, time.Minute)
			if d := (p + o) / 60 / float64(ep.NumVMs); d > peak {
				peak = d
			}
		}
		endpointPeak[ep.ID] = peak
	}
	return customerPeak, endpointPeak
}
