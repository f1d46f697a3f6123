package core

import (
	"math"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
)

// PowerGov is the closed-loop power-governing policy family: the full TAPAS
// stack for placement, routing, configuration and row/aisle capping, plus a
// per-tick monitor → recommender → tuner loop (power.Controller) that holds
// each SaaS endpoint under a configurable power budget.
//
// Each tick the governor (1) monitors the endpoint's draw — the summed
// ServerPowerW of its placed instances — against its budget (a fraction of
// the instances' aggregate server TDP), (2) recommends a dynamic-power scale
// via a clamped proportional controller with anti-windup, inverted into a
// per-server frequency state through the exported DVFS physics
// (power.TargetFreqFrac → power.FreqFracForPower), and (3) tunes
// ServerFreqCap a gain-sized step toward that state — approaching the
// recommendation gradually from either side, where TAPAS slams caps down on
// violations and waits for the engine's fixed decay. Every tuned server
// hosts an instance, so the governor only touches occupied servers and the
// engine's dirty-set capping contract (sim.Policy) holds.
//
// The energy-aware variant additionally replaces request routing: among the
// candidates whose projected time-to-first-token still fits the TTFT SLO,
// instances are scored by queued work weighted by their GPU generation's
// estimated energy per token, so on heterogeneous fleets SaaS load drifts to
// the efficient generation until its backlog nears the deadline — minimizing
// energy per token subject to the SLO, with plain TAPAS routing as the
// fallback when no candidate can meet it.
//
// Both controller knobs are sweepable as campaign axes
// (sim.Scenario.PowerGov → TunePowerGov): powergov.budget_frac in (0, 1],
// powergov.gain in (0, 1].
type PowerGov struct {
	*TAPAS
	energyAware bool
	ctrl        *power.Controller
}

// NewPowerGov builds the closed-loop power governor; energyAware additionally
// selects generation-efficiency-weighted request routing.
func NewPowerGov(energyAware bool) *PowerGov {
	return &PowerGov{TAPAS: NewFull(), energyAware: energyAware, ctrl: power.NewController(0)}
}

// Name implements sim.Policy.
func (g *PowerGov) Name() string {
	if g.energyAware {
		return "PowerGov-Energy"
	}
	return "PowerGov"
}

// Init implements sim.Policy: TAPAS profiling plus per-endpoint controller
// state.
func (g *PowerGov) Init(st *cluster.State) error {
	if err := g.TAPAS.Init(st); err != nil {
		return err
	}
	g.ctrl.Reset(len(st.Work.Endpoints))
	return nil
}

// TunePowerGov implements sim.PowerGovTunable: the engine forwards the
// scenario's PowerGov values once per run. Non-positive values keep the
// controller defaults (budget fraction 0.8, gain 0.35).
func (g *PowerGov) TunePowerGov(budgetFrac, gain float64) {
	g.ctrl.Tune(budgetFrac, gain)
}

// Configure implements sim.Policy: the TAPAS Instance Configurator and
// proactive row/aisle capping run first (hard envelopes stay authoritative),
// then the per-endpoint governor loop.
func (g *PowerGov) Configure(st *cluster.State) {
	g.TAPAS.Configure(st)
	g.govern(st)
}

// govern runs one controller tick per endpoint on the previous tick's
// telemetry, like the rest of Configure.
func (g *PowerGov) govern(st *cluster.State) {
	for ep := range st.Work.Endpoints {
		insts := st.EndpointInstances(ep)
		if len(insts) == 0 {
			continue
		}
		// Monitor: endpoint draw and capacity over its instances' servers.
		drawW, capacityW := 0.0, 0.0
		for _, vm := range insts {
			drawW += st.ServerPowerW[vm.Server]
			capacityW += st.ServerGPUSpec(vm.Server).ServerTDPW
		}
		// Recommend: the allowed fraction of uncapped dynamic GPU power.
		scale := g.ctrl.Recommend(ep, drawW, capacityW)
		// Tune: walk each server's frequency cap toward the state that
		// realizes the recommendation, one gain-sized step per tick.
		for _, vm := range insts {
			id := vm.Server
			spec := st.ServerGPUSpec(id)
			perGPUW := maxOf(st.GPUFracs(id)) * spec.GPUTDPW
			cur := st.ServerFreqCap[id]
			target := power.TargetFreqFrac(spec, cur, perGPUW, scale)
			next := power.StepToward(cur, target, g.ctrl.Gain, minFreqCap)
			if next != cur {
				st.ServerFreqCap[id] = next
			}
		}
	}
}

// maxOf returns the largest element (0 for an empty slice): the hottest GPU
// power fraction of a server block is its active-set fraction.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// RouteRequest implements sim.RequestRouter. The base variant keeps TAPAS
// routing. The energy-aware variant minimizes energy subject to the deadline:
// among the candidates whose projected time-to-first-token (wait already
// accrued + queued work + own prefill) still fits the TTFT SLO, it picks the
// lowest queued-work score weighted by the candidate's estimated energy per
// token (normalized to the most efficient candidate) — so on a heterogeneous
// fleet requests drift to the efficient generation until its backlog
// approaches the deadline, never past it. When no candidate fits, energy is
// irrelevant (the request is late wherever it lands) and routing falls back
// to plain TAPAS latency damage control.
func (g *PowerGov) RouteRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	if !g.energyAware {
		return g.TAPAS.RouteRequest(st, insts, req)
	}
	minJ := math.Inf(1)
	for _, vm := range insts {
		if j := energyPerTokenEst(st, vm); j < minJ {
			minJ = j
		}
	}
	// The engine admits at the start of the current tick; st.Now is its end.
	waited := (st.Now - st.Tick - req.Arrival).Seconds()
	if waited < 0 {
		waited = 0
	}
	throttleC := st.Spec.ThrottleTempC
	best, bestScore := -1, math.Inf(1)
	for i, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		pr := in.PrefillRate()
		if pr <= 0 {
			continue
		}
		backlog := in.DemandSeconds()
		if waited+backlog+float64(req.PromptTokens)/pr > in.SLOs.TTFT.Seconds() {
			continue // this instance would already blow the deadline
		}
		// Queued seconds of work, weighted by relative energy per token; the
		// +1s bias keeps the efficiency preference decisive between idle
		// instances, where backlog alone degenerates to zero for everyone.
		score := (backlog + 1) * energyPerTokenEst(st, vm) / minJ
		if in.HasAffinity(req.Customer) {
			score *= affinityDiscount
		}
		srv := st.DC.Servers[vm.Server]
		rowUse := st.RowPowerW[srv.Row] / (st.Budget.RowLimitW(srv.Row) + 1)
		aisleUse := st.AisleDemandCFM[srv.Aisle] / (st.AisleLimitCFM(srv.Aisle) + 1)
		tempUse := st.ServerHotGPUTempC[vm.Server] / (throttleC - 2)
		if headroomOf(rowUse, aisleUse, tempUse) <= 0 {
			score += unsafePenaltySecs
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		// No candidate meets the deadline: fall back to TAPAS routing.
		return g.TAPAS.RouteRequest(st, insts, req)
	}
	return best, true
}

// energyPerTokenEst estimates an instance's marginal serving cost in joules
// per token from published specs and the performance model: full-load server
// power over full-batch decode throughput. It only needs to rank GPU
// generations against each other, so the crude full-tilt operating point is
// enough — and it is exact where it matters, favoring generations that buy
// more tokens per joule.
func energyPerTokenEst(st *cluster.State, vm *cluster.VM) float64 {
	in := vm.Instance
	rate := in.DecodeRate()
	if rate <= 0 {
		return math.Inf(1)
	}
	return power.ServerPowerAtUniformLoad(&in.Spec, 1) / rate
}
