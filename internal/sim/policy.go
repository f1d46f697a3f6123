package sim

import (
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// Policy is the scheduling surface TAPAS and the baselines implement.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// Place selects a server for a newly arrived VM. ok=false rejects the
	// placement (retried next tick).
	Place(st *cluster.State, vm *cluster.VM) (serverID int, ok bool)
	// Route distributes an endpoint's per-tick token demand across its
	// instances by calling EnqueueBulk on them.
	Route(st *cluster.State, ep trace.EndpointSpec, promptTokens, outputTokens float64)
	// Configure may reconfigure SaaS instances (frequency, batch, TP,
	// model, quantization) based on current telemetry.
	Configure(st *cluster.State)
	// CapRow reacts to a row exceeding its power limit by lowering
	// ServerFreqCap entries for servers in that row (applied next tick).
	CapRow(st *cluster.State, row int, drawW, limitW float64)
	// CapAisle reacts to an aisle's airflow demand exceeding its
	// provisioned supply (heat recirculation pressure).
	CapAisle(st *cluster.State, aisle int, demandCFM, limitCFM float64)
}

// RequestRouter is an optional Policy extension consulted per request in
// request-level replay mode (Scenario.Requests). insts is the target
// endpoint's placed instances in ascending VM-ID order (never empty); the
// return value selects one by index. ok=false falls back to the engine's
// default routing (least queued seconds of work among non-reloading
// instances, ties to the lowest VM ID). The engine performs the enqueue —
// implementations only choose. Policies that do not implement the interface
// always get the default, so binned-mode policies run unchanged.
type RequestRouter interface {
	RouteRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (idx int, ok bool)
}

// RequestAdmitter is an optional Policy extension giving a RequestRouter
// veto power over admission in request-level replay mode. It is consulted
// instead of RouteRequest: admit=true places the request on insts[idx]
// exactly like RouteRequest; admit=false sheds it — the request is never
// enqueued, counts in Result.ReqShed, and produces no latency sample.
// Shedding trades completed volume for the latency of what remains, so
// SLO-attainment columns (computed over completions) must be read next to
// the requests_shed column.
type RequestAdmitter interface {
	AdmitRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (idx int, admit bool)
}

// RequestScheduler is an optional Policy extension selecting the scheduling
// discipline of per-instance request queues (FIFO when not implemented).
// The engine applies it when it attaches an instance's queue.
type RequestScheduler interface {
	QueueDiscipline() llm.Discipline
}

// SLOTunable is an optional Policy extension for policies whose
// admission/routing parameters can be swept as campaign axes. The engine
// calls TuneSLO once per run, before the first tick, with the scenario's
// SLOSched values; zero values mean "keep the policy's default".
type SLOTunable interface {
	TuneSLO(affinityWeight, admissionSlack float64)
}

// PowerGovTunable is an optional Policy extension for closed-loop power
// governors (core.PowerGov). The engine calls TunePowerGov once per run,
// before the first tick, with the scenario's PowerGov values; zero values
// mean "keep the policy's default".
type PowerGovTunable interface {
	TunePowerGov(budgetFrac, gain float64)
}

// PowerGov parameterizes closed-loop power-capping policies (core.PowerGov).
// The zero value leaves policy defaults untouched. Runtime-only: no compiled
// artifact depends on it, so it stays out of the scenario cache key and a
// compiled scenario adopts it per run.
type PowerGov struct {
	// BudgetFrac is each endpoint's power budget as a fraction of the
	// aggregate server TDP of its placed instances. Policy default 0.8
	// (power.DefaultBudgetFrac). Swept via the powergov.budget_frac axis.
	BudgetFrac float64
	// Gain is the controller's per-tick correction gain in (0, 1]: the
	// fraction of the normalized budget error folded into the recommended
	// power scale, and the tuner's per-tick step toward the recommended
	// frequency. Policy default 0.35 (power.DefaultGain). Swept via the
	// powergov.gain axis.
	Gain float64
}

// SLOSched parameterizes SLO-aware scheduling policies (core.SLO). The
// zero value leaves policy defaults untouched. Runtime-only, like PowerGov:
// it stays out of the scenario cache key and a compiled scenario adopts it
// per run.
type SLOSched struct {
	// AffinityWeight is the multiplicative score discount for routing a
	// request to an instance that recently served the same customer
	// (KV-cache reuse). 1 disables affinity, smaller values chase reuse
	// harder. Policy default 0.5, matching TAPAS's fixed discount.
	AffinityWeight float64
	// AdmissionSlack scales the TTFT SLO bound used by deadline-aware
	// admission: a request is shed when its projected TTFT on the best
	// candidate instance exceeds slack × TTFT SLO. Policy default 1.
	AdmissionSlack float64
}

// FailureKind enumerates infrastructure emergencies (§5.4).
type FailureKind int

const (
	// CoolingFailure models an AHU/chiller loss: aisle airflow limited to
	// 90% of provisioned.
	CoolingFailure FailureKind = iota
	// PowerFailure models a UPS loss in the 4N/3 group: row power limited
	// to 75% of provisioned.
	PowerFailure
)

func (k FailureKind) String() string {
	if k == PowerFailure {
		return "power"
	}
	return "cooling"
}

// FailureEvent schedules an emergency window.
type FailureEvent struct {
	Kind     FailureKind
	At       time.Duration
	Duration time.Duration
}

// Scenario fully describes one simulation run.
type Scenario struct {
	Layout layout.Config
	// Workload configures the synthetic workload generator. Compile fills
	// its Servers from the layout (plus Oversubscribe) and its Duration from
	// Duration, so callers leave both zero.
	Workload trace.WorkloadConfig
	// Trace, when non-nil, replays a recorded workload instead of generating
	// one: Compile uses it verbatim (shared read-only across runs, like
	// generated workloads) and Workload is ignored. The trace must have been
	// recorded against a fleet of the same size as Layout (plus
	// Oversubscribe) provides — Compile rejects mismatches — so campaigns
	// can sweep policies, climates, and failures over a pinned workload.
	// Record/replay traces round-trip through trace.WriteWorkloadCSV /
	// ReadWorkloadCSV (see cmd/tapas-trace).
	Trace *trace.Workload
	// TraceTransforms is an optional replay-time transform chain applied to
	// Trace inside Compile (time_warp, demand_scale, endpoint_filter,
	// jitter, splice), turning one pinned trace into a family of scenarios —
	// "the same trace, 2x hotter". Requires Trace; the transformed workload
	// is validated exactly like a replayed one. Compile-relevant: a
	// compilation keeps its own chain (ForScenario does not adopt it), and
	// the chain (including step contents) must not be mutated after Compile.
	TraceTransforms transform.Chain
	// Requests, when non-empty, switches SaaS serving into request-level
	// replay mode: instead of routing binned per-tick token demand, the
	// engine admits these individual requests by arrival time into
	// per-instance continuous-batching queues (llm.RequestQueue) and records
	// per-request TTFT, time-between-tokens and queueing delay. Requests
	// must be sorted by Arrival (an offset from simulation start) and
	// reference endpoints of the scenario's workload; requests arriving
	// after the run's horizon are never admitted, and requests still in
	// flight at the horizon produce no latency sample. Compile-relevant:
	// the chain in TraceTransforms is applied to the log at compile time
	// (time_warp, demand_scale), and the log is part of the scenario's
	// cache key. Typically loaded from a requests CSV (trace.LoadRequestsCSV,
	// the `requests` scenario-spec field).
	Requests []llm.Request
	// SLOSched tunes SLO-aware policies (request-level replay mode only);
	// the zero value keeps policy defaults. Swept via the
	// slo.affinity_weight and slo.admission_slack campaign axes.
	// Runtime-only.
	SLOSched SLOSched
	// PowerGov tunes closed-loop power-capping policies (core.PowerGov);
	// the zero value keeps policy defaults. Swept via the
	// powergov.budget_frac and powergov.gain campaign axes. Runtime-only.
	PowerGov PowerGov
	// Region is the climate each run builds its outside-temperature series
	// from. Runtime-only.
	Region   trace.Region
	Duration time.Duration
	Tick     time.Duration
	// StartOffset shifts the time-of-day phase of all load and weather
	// patterns, letting short scenarios run at the diurnal peak. VM
	// arrivals and lifetimes stay on the simulation clock. Runtime-only;
	// Compile, CompileCache.Compile and Run reject a negative offset.
	StartOffset   time.Duration
	Oversubscribe float64 // extra rack ratio added at fixed envelopes
	Failures      []FailureEvent
	// Observer, when set, is invoked at the end of every tick with the live
	// cluster state, for example to sample sensors, record per-row power
	// (st.RowPowerW holds the tick's row draws) or time ticks; it must not
	// mutate the state.
	Observer func(st *cluster.State)
}

// DefaultScenario returns the paper's large-scale setup: ~1000 A100 servers,
// 50/50 IaaS/SaaS, one week at one-minute ticks, temperate region.
func DefaultScenario() Scenario {
	lc := layout.DefaultConfig()
	return Scenario{
		Layout: lc,
		Workload: trace.WorkloadConfig{
			SaaSFraction: 0.5,
			Endpoints:    10,
			Seed:         42,
		},
		Region:   trace.RegionTemperate,
		Duration: 7 * 24 * time.Hour,
		Tick:     time.Minute,
	}
}

// SmallScenario returns the paper's real-cluster setup: 80 servers in two
// rows, 50/50 mix, one hour.
func SmallScenario() Scenario {
	lc := layout.SmallConfig()
	return Scenario{
		Layout: lc,
		Workload: trace.WorkloadConfig{
			SaaSFraction: 0.5,
			Endpoints:    3,
			Seed:         42,
		},
		Region:      trace.RegionHot,
		Duration:    time.Hour,
		Tick:        time.Minute,
		StartOffset: 13 * time.Hour, // early-afternoon diurnal peak
	}
}
