package core

import (
	"math"
	"strings"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/trace"
)

// Options selects which TAPAS levers are active; all three is the full
// system, and the six partial combinations are the paper's ablation variants
// (Fig. 20). The lever-less system is the Baseline (NewBaseline).
type Options struct {
	Place  bool
	Route  bool
	Config bool
}

// TAPAS is the thermal- and power-aware scheduling policy (§4).
type TAPAS struct {
	opts Options
	base *Baseline

	prof          *Profiles
	alloc         *allocator
	route         *router
	config        *configurator
	migrate       *migrator
	rowOverRuns   []int // consecutive over-budget ticks per row
	aisleOverRuns []int
	// rowUnderRuns/aisleUnderRuns count consecutive under-budget ticks so
	// the escalation counters above reset after a full recovery window —
	// without the reset they are monotone within a run, and on week-long
	// horizons one early sustained violation makes every later isolated
	// violation skip the configurator's grace tick forever.
	rowUnderRuns   []int
	aisleUnderRuns []int

	// Per-tick scratch reused across capping calls (steady-state capping
	// performs no heap allocations).
	capIDs  []int
	capIaaS []int
	capSaaS []int

	// Migrations counts executed SaaS migrations (§4.1) for introspection.
	Migrations int
}

// New builds a TAPAS policy (or ablation variant) with the given levers, at
// least one of them; NewBaseline is the system with none.
func New(opts Options) *TAPAS {
	return &TAPAS{opts: opts, base: NewBaseline()}
}

// NewFull returns the complete TAPAS system.
func NewFull() *TAPAS { return New(Options{Place: true, Route: true, Config: true}) }

// Name implements sim.Policy with the paper's variant naming.
func (t *TAPAS) Name() string {
	if t.opts == (Options{Place: true, Route: true, Config: true}) {
		return "TAPAS"
	}
	var parts []string
	if t.opts.Place {
		parts = append(parts, "Place")
	}
	if t.opts.Route {
		parts = append(parts, "Route")
	}
	if t.opts.Config {
		parts = append(parts, "Config")
	}
	return strings.Join(parts, "+")
}

// Init runs the offline profiling phase (§4.5) against the datacenter.
// Profiles are memoized per layout (ProfilesFor), so repeated runs over a
// shared compiled scenario fit the regression models once.
func (t *TAPAS) Init(st *cluster.State) error {
	prof, err := ProfilesFor(st.DC)
	if err != nil {
		return err
	}
	t.prof = prof
	t.alloc = &allocator{prof: prof}
	t.route = &router{prof: prof}
	t.config = newConfigurator(prof)
	t.migrate = newMigrator(prof)
	t.rowOverRuns = make([]int, len(st.DC.Rows))
	t.aisleOverRuns = make([]int, len(st.DC.Aisles))
	t.rowUnderRuns = make([]int, len(st.DC.Rows))
	t.aisleUnderRuns = make([]int, len(st.DC.Aisles))
	return nil
}

// Place implements sim.Policy.
func (t *TAPAS) Place(st *cluster.State, vm *cluster.VM) (int, bool) {
	if !t.opts.Place {
		return t.base.Place(st, vm)
	}
	if srv, ok := t.alloc.place(st, vm); ok {
		return srv, true
	}
	// The validator found no compliant server; fall back to packing rather
	// than rejecting capacity outright (the paper migrates/requeues; the
	// fluid simulator retries next tick first).
	return t.base.Place(st, vm)
}

// Route implements sim.Policy.
func (t *TAPAS) Route(st *cluster.State, ep trace.EndpointSpec, prompt, output float64) {
	if !t.opts.Route {
		t.base.Route(st, ep, prompt, output)
		return
	}
	t.route.route(st, ep, prompt, output)
}

// affinityDiscount scales the queued-work score of instances that already
// hold a customer's KV-cache state, so request-level routing prefers warm
// instances (§4.2's cache-affinity routing) without starving cold ones: a
// warm instance loses preference once its backlog doubles a cold one's.
const affinityDiscount = 0.5

// unsafePenaltySecs pushes instances with no thermal/power headroom behind
// every safe instance in the request-routing score; it is only ever decisive
// when all instances are unsafe, where relative backlog still breaks ties.
const unsafePenaltySecs = 1e6

// RouteRequest implements sim.RequestRouter for request-level replay. With
// the Route lever active, requests prefer instances already serving the same
// customer (KV-cache affinity) and avoid instances whose server lacks
// thermal or power headroom — the same signals the fluid token router uses
// (scoreRequest, with no deadline filter). With the lever off, or when every
// instance is reloading, it defers to the engine's least-queued-work default.
func (t *TAPAS) RouteRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	if !t.opts.Route {
		return 0, false
	}
	return scoreRequest(st, insts, req, affinityDiscount, 0, 0)
}

// Configure implements sim.Policy. Besides the Instance Configurator it
// applies proactive selective capping just under the row/aisle limits, so
// oversubscribed fleets converge below the envelopes instead of oscillating
// across them (Fig. 21's near-zero capping at 40% oversubscription).
func (t *TAPAS) Configure(st *cluster.State) {
	if t.opts.Place && t.migrate != nil {
		t.Migrations += t.migrate.step(st)
	}
	if !t.opts.Config {
		return
	}
	t.config.configure(st)
	t.decayOverruns(st)
	const proactive = 0.985
	for row, draw := range st.RowPowerW {
		limit := st.Budget.RowLimitW(row) * proactive
		if draw > limit {
			t.selectiveCap(st, t.rowIDs(st, row), draw-limit)
		}
	}
	for a, demand := range st.AisleDemandCFM {
		limit := st.AisleLimitCFM(a) * proactive
		if demand <= limit {
			continue
		}
		ids := t.capIDs[:0]
		totalW := 0.0
		for _, srv := range st.DC.Aisles[a].Servers() {
			ids = append(ids, srv.ID)
			totalW += st.ServerPowerW[srv.ID]
		}
		t.capIDs = ids
		t.selectiveCap(st, ids, (demand-limit)/demand*totalW)
	}
}

// overrunRecoveryTicks is the recovery window after which a row/aisle that
// stayed under budget gets its escalation counter reset: the time a fully
// capped server needs to recover to uncapped under the engine's ×1.05
// per-tick release from the 0.3 floor (⌈ln(1/0.3)/ln(1.05)⌉ ≈ 25). A
// violation inside the window still escalates immediately; only after the
// caps it caused have fully drained does the next violation get the
// configurator's grace tick again.
const overrunRecoveryTicks = 25

// decayOverruns counts consecutive under-budget ticks per row/aisle (on the
// previous tick's telemetry, like the rest of Configure) and resets the
// matching escalation counter after a full recovery window, so the
// consecutive-violation semantics of CapRow/CapAisle hold on long horizons
// instead of the counters ratcheting monotonically within a run.
func (t *TAPAS) decayOverruns(st *cluster.State) {
	for row, draw := range st.RowPowerW {
		if draw > st.Budget.RowLimitW(row) {
			t.rowUnderRuns[row] = 0
			continue
		}
		if t.rowUnderRuns[row]++; t.rowUnderRuns[row] >= overrunRecoveryTicks {
			t.rowOverRuns[row] = 0
			t.rowUnderRuns[row] = 0
		}
	}
	for a, demand := range st.AisleDemandCFM {
		if demand > st.AisleLimitCFM(a) {
			t.aisleUnderRuns[a] = 0
			continue
		}
		if t.aisleUnderRuns[a]++; t.aisleUnderRuns[a] >= overrunRecoveryTicks {
			t.aisleOverRuns[a] = 0
			t.aisleUnderRuns[a] = 0
		}
	}
}

// rowIDs fills the reusable capIDs scratch with the row's server IDs.
func (t *TAPAS) rowIDs(st *cluster.State, row int) []int {
	ids := t.capIDs[:0]
	for _, srv := range st.DC.Rows[row].Servers {
		ids = append(ids, srv.ID)
	}
	t.capIDs = ids
	return ids
}

// CapRow implements sim.Policy. With the Config lever active, TAPAS first
// lets the Instance Configurator shed SaaS power; only if the row stays over
// budget on consecutive ticks does it cap — IaaS last, per §4.4's "regular
// power capping techniques to the IaaS VMs" as the final resort.
func (t *TAPAS) CapRow(st *cluster.State, row int, drawW, limitW float64) {
	if !t.opts.Config {
		t.base.CapRow(st, row, drawW, limitW)
		return
	}
	t.rowOverRuns[row]++
	if t.rowOverRuns[row] < 2 {
		return // give the configurator one tick to react
	}
	t.selectiveCap(st, t.rowIDs(st, row), drawW-limitW)
}

// CapAisle implements sim.Policy with the same selective escalation.
func (t *TAPAS) CapAisle(st *cluster.State, aisle int, demandCFM, limitCFM float64) {
	if !t.opts.Config {
		t.base.CapAisle(st, aisle, demandCFM, limitCFM)
		return
	}
	t.aisleOverRuns[aisle]++
	if t.aisleOverRuns[aisle] < 2 {
		return
	}
	// Airflow tracks dynamic power; convert the CFM overdraw into a power
	// shed target using the fleet-average W-per-CFM of the aisle.
	ids := t.capIDs[:0]
	totalW := 0.0
	for _, srv := range st.DC.Aisles[aisle].Servers() {
		ids = append(ids, srv.ID)
		totalW += st.ServerPowerW[srv.ID]
	}
	t.capIDs = ids
	shedW := (demandCFM - limitCFM) / demandCFM * totalW
	t.selectiveCap(st, ids, shedW)
}

// selectiveCap sheds shedW watts from the given servers by capping IaaS
// frequency, falling back to SaaS servers only if IaaS reduction cannot
// cover the target.
func (t *TAPAS) selectiveCap(st *cluster.State, ids []int, shedW float64) {
	if shedW <= 0 {
		return
	}
	var idleWBy [layout.GPUModelCount]float64
	for m := range idleWBy {
		idleWBy[m] = t.prof.PowerFor(layout.GPUModel(m)).Predict(0)
	}
	iaas, saas := t.capIaaS[:0], t.capSaaS[:0]
	iaasDynW := 0.0
	for _, id := range ids {
		vmID := st.ServerVM[id]
		if vmID == -1 {
			continue
		}
		if st.VMs[vmID].Spec.Kind == trace.IaaS {
			iaas = append(iaas, id)
			if d := st.ServerPowerW[id] - idleWBy[st.DC.ServerModel[id]]; d > 0 {
				iaasDynW += d
			}
		} else {
			saas = append(saas, id)
		}
	}
	t.capIaaS, t.capSaaS = iaas, saas
	headroomLeft := false
	if iaasDynW > 0 {
		factor := 1 - shedW/iaasDynW
		if factor < 0 {
			factor = 0
		}
		freqScale := math.Pow(math.Max(factor, 0.05), 1/power.DVFSExponent)
		for _, id := range iaas {
			// Compound: frequency only reaches the GPU dynamic share, so
			// the controller presses until the violation clears.
			next := math.Max(minFreqCap, st.ServerFreqCap[id]*freqScale)
			if next < st.ServerFreqCap[id] {
				st.ServerFreqCap[id] = next
			}
			if st.ServerFreqCap[id] > minFreqCap {
				headroomLeft = true
			}
		}
		if factor > 0 && headroomLeft {
			return // IaaS capping still has room to cover the shed target
		}
		shedW -= iaasDynW
	}
	// Residual shed falls on SaaS servers.
	saasDynW := 0.0
	for _, id := range saas {
		if d := st.ServerPowerW[id] - idleWBy[st.DC.ServerModel[id]]; d > 0 {
			saasDynW += d
		}
	}
	if saasDynW <= 0 || shedW <= 0 {
		return
	}
	factor := math.Max(1-shedW/saasDynW, 0.05)
	freqScale := math.Pow(factor, 1/power.DVFSExponent)
	for _, id := range saas {
		st.ServerFreqCap[id] = math.Max(minFreqCap, st.ServerFreqCap[id]*freqScale)
	}
}
