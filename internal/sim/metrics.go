package sim

import (
	"math"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/regress"
)

// Result aggregates everything a run produces.
type Result struct {
	Policy string
	Tick   time.Duration
	Ticks  int

	// Per-tick series.
	MaxTempC      []float64 // hottest GPU in the datacenter
	PeakRowPowerW []float64 // hungriest row
	TotalPowerW   []float64

	// Event accounting in server-ticks. A server-tick is thermally capped
	// when its GPUs hardware-throttle or its aisle out-draws the AHUs;
	// power-capped when its row exceeds the effective power limit.
	// FreqCapSrvTicks counts server-ticks that ran under an *applied*
	// frequency cap (ServerFreqCap < 1 after the tick's recovery step),
	// whichever policy path set it — so unlike PowerCapSrvTicks, which
	// counts row-limit violations, it measures actual capping interventions
	// and distinguishes a governor that caps gently and early from one that
	// slams on violations.
	ServerTicks             int
	ThermalThrottleSrvTicks int
	PowerCapSrvTicks        int
	FreqCapSrvTicks         int
	PlacementRejects        int

	// SaaS service quality.
	SaaSDemandTokens  float64
	SaaSServedTokens  float64
	SaaSCompletedReqs float64
	SaaSViolatedReqs  float64
	SaaSQualityWeight float64

	// IaaS impact.
	IaaSFreqCapSum  float64 // Σ (1 − freqCap) over IaaS server-ticks
	IaaSServerTicks int

	// Per-endpoint energy accounting, sized to the workload's endpoints by
	// the engine and populated in both binned and request-level modes.
	// EndpointEnergyJ integrates the full power of every server hosting an
	// endpoint's instances over each tick (accumulated after each kernel
	// pass in ascending VM-ID order);
	// EndpointServedTokens attributes served tokens per endpoint in the
	// engine's deterministic harvest order.
	EndpointEnergyJ      []float64
	EndpointServedTokens []float64

	// Request-level replay SLO accounting, populated only when the scenario
	// carries a request log (Scenario.Requests). Outer slices are indexed by
	// endpoint ID and sized on demand; samples are seconds, appended in the
	// engine's deterministic harvest order (ascending VM ID at departure and
	// end of run), so reports are byte-identical at any -parallel setting.
	// Requests still in flight at the horizon contribute nothing.
	ReqTTFT       [][]float64 // per endpoint: time to first token
	ReqTBT        [][]float64 // per endpoint: max time between tokens
	ReqQueueDelay [][]float64 // per endpoint: arrival → prefill start
	ReqCompleted  []int       // per endpoint: completed requests
	ReqViolated   []int       // per endpoint: completions violating an SLO
	ReqAdmitted   []int       // per endpoint: requests routed to an instance
	ReqShed       []int       // per endpoint: requests rejected at admission
}

// growEndpoints sizes every per-endpoint slice to cover endpoint ep, so the
// parallel slices stay index-aligned no matter which accessor grew them.
func (r *Result) growEndpoints(ep int) {
	for len(r.ReqCompleted) <= ep {
		r.ReqTTFT = append(r.ReqTTFT, nil)
		r.ReqTBT = append(r.ReqTBT, nil)
		r.ReqQueueDelay = append(r.ReqQueueDelay, nil)
		r.ReqCompleted = append(r.ReqCompleted, 0)
		r.ReqViolated = append(r.ReqViolated, 0)
		r.ReqAdmitted = append(r.ReqAdmitted, 0)
		r.ReqShed = append(r.ReqShed, 0)
	}
}

// AddCompletion folds one drained request-latency record into the
// per-endpoint SLO accounting. The engine calls it in harvest order.
func (r *Result) AddCompletion(c llm.Completion) {
	ep := c.Endpoint
	r.growEndpoints(ep)
	r.ReqTTFT[ep] = append(r.ReqTTFT[ep], c.TTFT)
	r.ReqTBT[ep] = append(r.ReqTBT[ep], c.TBT)
	r.ReqQueueDelay[ep] = append(r.ReqQueueDelay[ep], c.QueueDelay)
	r.ReqCompleted[ep]++
	if c.Violated {
		r.ReqViolated[ep]++
	}
}

// AddAdmitted counts one request the router placed on an instance.
func (r *Result) AddAdmitted(ep int) {
	r.growEndpoints(ep)
	r.ReqAdmitted[ep]++
}

// AddShed counts one request an admission-controlling policy rejected: it
// was never enqueued, so it appears in no latency series. Admitted + shed
// sums to the requests that arrived within the horizon.
func (r *Result) AddShed(ep int) {
	r.growEndpoints(ep)
	r.ReqShed[ep]++
}

// MaxTemp returns the run-wide maximum GPU temperature.
func (r *Result) MaxTemp() float64 { return maxOf(r.MaxTempC) }

// PeakPower returns the run-wide peak row power.
func (r *Result) PeakPower() float64 { return maxOf(r.PeakRowPowerW) }

// PercentilePeakPower returns a percentile of the per-tick peak row power
// series, useful for comparing sustained peaks rather than single spikes.
func (r *Result) PercentilePeakPower(p float64) float64 {
	return regress.Percentile(r.PeakRowPowerW, p)
}

// PercentileMaxTemp returns a percentile of the per-tick max temperature.
func (r *Result) PercentileMaxTemp(p float64) float64 {
	return regress.Percentile(r.MaxTempC, p)
}

// ThrottleFrac returns the fraction of server-time under thermal throttling.
func (r *Result) ThrottleFrac() float64 {
	if r.ServerTicks == 0 {
		return 0
	}
	return float64(r.ThermalThrottleSrvTicks) / float64(r.ServerTicks)
}

// PowerCapFrac returns the fraction of server-time under power capping.
func (r *Result) PowerCapFrac() float64 {
	if r.ServerTicks == 0 {
		return 0
	}
	return float64(r.PowerCapSrvTicks) / float64(r.ServerTicks)
}

// AvgQuality returns the quality-weighted average over completed requests.
func (r *Result) AvgQuality() float64 {
	if r.SaaSCompletedReqs == 0 {
		return 1
	}
	return r.SaaSQualityWeight / r.SaaSCompletedReqs
}

// SLOViolationRate returns the fraction of completed requests that violated
// their latency SLO.
func (r *Result) SLOViolationRate() float64 {
	if r.SaaSCompletedReqs == 0 {
		return 0
	}
	return r.SaaSViolatedReqs / r.SaaSCompletedReqs
}

// ServiceRate returns served/demanded SaaS tokens (1 = kept up with load).
func (r *Result) ServiceRate() float64 {
	if r.SaaSDemandTokens == 0 {
		return 1
	}
	rate := r.SaaSServedTokens / r.SaaSDemandTokens
	if rate > 1 {
		return 1
	}
	return rate
}

// IaaSPerfLoss returns the average IaaS performance loss from frequency
// capping (0 = unaffected, 0.35 = 35% capped on average).
func (r *Result) IaaSPerfLoss() float64 {
	if r.IaaSServerTicks == 0 {
		return 0
	}
	return r.IaaSFreqCapSum / float64(r.IaaSServerTicks)
}

// AllEndpoints selects the aggregate over every endpoint in the
// request-level SLO accessors below.
const AllEndpoints = -1

// reqSamples returns one endpoint's sample slice, or the concatenation over
// all endpoints for AllEndpoints (endpoint order, so the aggregate is
// deterministic; percentiles sort anyway).
func (r *Result) reqSamples(series [][]float64, ep int) []float64 {
	if ep >= 0 {
		if ep >= len(series) {
			return nil
		}
		return series[ep]
	}
	var all []float64
	for _, s := range series {
		all = append(all, s...)
	}
	return all
}

func percentileOrZero(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return regress.Percentile(xs, p)
}

// TTFTPercentile returns the p-th percentile of time-to-first-token in
// seconds over an endpoint's completed requests (AllEndpoints aggregates;
// 0 with no completions). Percentiles interpolate linearly on rank
// p/100·(n−1) over the sorted samples (regress.Percentile).
func (r *Result) TTFTPercentile(ep int, p float64) float64 {
	return percentileOrZero(r.reqSamples(r.ReqTTFT, ep), p)
}

// TBTPercentile returns the p-th percentile of the per-request maximum
// time-between-tokens in seconds (AllEndpoints aggregates; 0 with no
// completions).
func (r *Result) TBTPercentile(ep int, p float64) float64 {
	return percentileOrZero(r.reqSamples(r.ReqTBT, ep), p)
}

// QueueDelayPercentile returns the p-th percentile of queueing delay
// (arrival to prefill start) in seconds (AllEndpoints aggregates; 0 with no
// completions).
func (r *Result) QueueDelayPercentile(ep int, p float64) float64 {
	return percentileOrZero(r.reqSamples(r.ReqQueueDelay, ep), p)
}

// SLOAttainment returns the fraction of an endpoint's completed requests
// that met both latency SLOs: (completed − violated) / completed, over
// completed requests only (in-flight requests at the horizon are excluded).
// AllEndpoints aggregates. No completions yields NaN — "no data", which
// reports render as a blank cell — so an overloaded endpoint that finished
// nothing is distinguishable from one at 0% attainment.
func (r *Result) SLOAttainment(ep int) float64 {
	var done, bad int
	if ep >= 0 {
		if ep < len(r.ReqCompleted) {
			done, bad = r.ReqCompleted[ep], r.ReqViolated[ep]
		}
	} else {
		for i := range r.ReqCompleted {
			done += r.ReqCompleted[i]
			bad += r.ReqViolated[i]
		}
	}
	if done == 0 {
		return math.NaN()
	}
	return float64(done-bad) / float64(done)
}

// RequestsCompleted returns the number of completed requests for an endpoint
// (AllEndpoints aggregates).
func (r *Result) RequestsCompleted(ep int) int { return sumCount(r.ReqCompleted, ep) }

// RequestsAdmitted returns the number of requests routed to an instance for
// an endpoint (AllEndpoints aggregates).
func (r *Result) RequestsAdmitted(ep int) int { return sumCount(r.ReqAdmitted, ep) }

// RequestsShed returns the number of requests rejected at admission for an
// endpoint (AllEndpoints aggregates). Always 0 for policies without
// admission control.
func (r *Result) RequestsShed(ep int) int { return sumCount(r.ReqShed, ep) }

// RequestEndpoints returns how many endpoint slots the request-level
// accounting covers (0 in binned mode).
func (r *Result) RequestEndpoints() int { return len(r.ReqCompleted) }

// EnergyPerTokenJ returns an endpoint's serving energy per served token in
// joules: the power of every server hosting its instances integrated over
// the run, divided by the tokens it served (AllEndpoints aggregates both
// sums first). An endpoint that served nothing yields NaN — "no data",
// rendered blank/null by reports — so idle endpoints are distinguishable
// from impossibly efficient ones.
func (r *Result) EnergyPerTokenJ(ep int) float64 {
	var energy, tokens float64
	if ep >= 0 {
		if ep >= len(r.EndpointEnergyJ) {
			return math.NaN()
		}
		energy, tokens = r.EndpointEnergyJ[ep], r.EndpointServedTokens[ep]
	} else {
		for i := range r.EndpointEnergyJ {
			energy += r.EndpointEnergyJ[i]
			tokens += r.EndpointServedTokens[i]
		}
	}
	if tokens == 0 {
		return math.NaN()
	}
	return energy / tokens
}

// CapEvents returns the number of server-ticks spent under an applied
// frequency cap (see FreqCapSrvTicks).
func (r *Result) CapEvents() int { return r.FreqCapSrvTicks }

func sumCount(counts []int, ep int) int {
	if ep >= 0 {
		if ep >= len(counts) {
			return 0
		}
		return counts[ep]
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// maxOf returns the maximum of the series, folding from the first element so
// all-negative series (sub-zero cold-climate temperatures) report their true
// maximum. Empty series return 0.
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
