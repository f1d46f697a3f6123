package llm

import (
	"sort"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/regress"
)

// EngineSim is an iteration-level simulator of a single serving instance
// with continuous batching: prefill admits one waiting request at a time,
// decode steps advance every running sequence by one token. No experiment
// runs it; it is the self-clocked reference the tick-driven RequestQueue is
// checked against (TestQueueMatchesEngineSim).
type EngineSim struct {
	Spec   layout.GPUSpec
	Config Config

	now     time.Duration
	queue   []*tracked
	running []*tracked
	done    []*tracked

	busyPrefill time.Duration
	busyDecode  time.Duration
}

type tracked struct {
	req        Request
	firstToken time.Duration
	finished   time.Duration
	maxTBT     time.Duration
	tokensLeft int
}

// NewEngineSim builds an engine simulator.
func NewEngineSim(spec layout.GPUSpec, c Config) *EngineSim {
	return &EngineSim{Spec: spec, Config: c}
}

// EngineStats summarizes a completed engine run.
type EngineStats struct {
	Completed     int
	ServedTokens  int
	Makespan      time.Duration
	TTFTP50       time.Duration
	TTFTP99       time.Duration
	TBTP99        time.Duration
	PrefillBusy   time.Duration
	DecodeBusy    time.Duration
	SLOAttainment float64 // fraction of requests within both SLOs
}

// Run serves the request trace (sorted by arrival) until all requests finish
// or horizon elapses, and returns latency statistics evaluated against slos.
func (e *EngineSim) Run(requests []Request, horizon time.Duration, slos SLOs) EngineStats {
	reqs := append([]Request(nil), requests...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	next := 0
	for e.now < horizon {
		// Admit arrivals.
		for next < len(reqs) && reqs[next].Arrival <= e.now {
			r := reqs[next]
			e.queue = append(e.queue, &tracked{req: r, tokensLeft: r.OutputTokens})
			next++
		}
		switch {
		case len(e.queue) > 0 && len(e.running) < e.Config.MaxBatch:
			// Prefill the oldest waiting request.
			t := e.queue[0]
			e.queue = e.queue[1:]
			dur := time.Duration(float64(t.req.PromptTokens) / PrefillRate(e.Spec, e.Config) * float64(time.Second))
			e.now += dur
			e.busyPrefill += dur
			t.firstToken = e.now
			if t.tokensLeft <= 0 {
				t.finished = e.now
				e.done = append(e.done, t)
			} else {
				e.running = append(e.running, t)
			}
		case len(e.running) > 0:
			// One decode iteration for the whole batch.
			dur := DecodeStepTime(e.Spec, e.Config, len(e.running))
			e.now += dur
			e.busyDecode += dur
			keep := e.running[:0]
			for _, t := range e.running {
				t.tokensLeft--
				if dur > t.maxTBT {
					t.maxTBT = dur
				}
				if t.tokensLeft <= 0 {
					t.finished = e.now
					e.done = append(e.done, t)
				} else {
					keep = append(keep, t)
				}
			}
			e.running = keep
		case next < len(reqs):
			// Idle: jump to the next arrival.
			if reqs[next].Arrival > e.now {
				e.now = reqs[next].Arrival
			}
		default:
			// Nothing left anywhere.
			return e.stats(slos)
		}
	}
	return e.stats(slos)
}

func (e *EngineSim) stats(slos SLOs) EngineStats {
	st := EngineStats{
		Completed:   len(e.done),
		Makespan:    e.now,
		PrefillBusy: e.busyPrefill,
		DecodeBusy:  e.busyDecode,
	}
	if len(e.done) == 0 {
		return st
	}
	ttfts := make([]float64, 0, len(e.done))
	tbts := make([]float64, 0, len(e.done))
	within := 0
	for _, t := range e.done {
		st.ServedTokens += t.req.PromptTokens + t.req.OutputTokens - t.tokensLeft
		ttft := t.firstToken - t.req.Arrival
		ttfts = append(ttfts, ttft.Seconds())
		tbts = append(tbts, t.maxTBT.Seconds())
		if ttft <= slos.TTFT && t.maxTBT <= slos.TBT {
			within++
		}
	}
	st.TTFTP50 = time.Duration(regress.Percentile(ttfts, 50) * float64(time.Second))
	st.TTFTP99 = time.Duration(regress.Percentile(ttfts, 99) * float64(time.Second))
	st.TBTP99 = time.Duration(regress.Percentile(tbts, 99) * float64(time.Second))
	st.SLOAttainment = float64(within) / float64(len(e.done))
	return st
}
