package llm

import (
	"time"

	"github.com/tapas-sim/tapas/internal/units"
)

// Completion is the latency record of one finished request, drained by the
// simulation engine at end of run. Latencies are in seconds: TTFT is first
// token minus arrival, TBT the maximum gap between consecutive output tokens,
// QueueDelay the wait from arrival until prefill started. Violated reports
// whether TTFT or TBT exceeded the endpoint's SLOs.
type Completion struct {
	Endpoint   int
	TTFT       float64
	TBT        float64
	QueueDelay float64
	Violated   bool
}

// opKind identifies the engine operation a RequestQueue is executing.
type opKind uint8

const (
	opNone opKind = iota
	opPrefill
	opDecode
)

// Discipline selects the order startOp admits waiting requests in.
type Discipline uint8

const (
	// FIFO admits the oldest waiting request first (arrival order) — the
	// default, matching EngineSim's iteration-level semantics.
	FIFO Discipline = iota
	// EDF admits the waiting request with the earliest latest-allowable
	// prefill start first: to meet its TTFT deadline (arrival + TTFT SLO),
	// a request's prefill must begin by deadline − prompt/prefillRate, so
	// EDF prioritizes the request with the least slack — earlier arrivals
	// and longer prompts. Ties (equal deadlines) keep arrival order.
	EDF
)

// queuedReq is a request tracked through the queue with its latency marks
// (seconds on the queue's wall clock).
type queuedReq struct {
	req        Request
	tokensLeft int
	firstToken float64
	queueDelay float64
	maxTBT     float64
}

// RequestQueue is the discrete-event continuous-batching state of one
// instance in request-level replay mode: a FIFO of waiting requests, the
// running decode batch, and the in-flight engine operation. It mirrors
// EngineSim's iteration-level semantics — prefill admits the oldest waiting
// request whenever the batch has room, otherwise one decode iteration
// advances every running sequence by one token — but is driven by the tick
// kernel: each tick consumes wall time at the instance's SpeedFactor, and an
// operation that outlives the tick carries its remaining work (and its true
// start time, so TTFT/TBT measure real wall spans across frequency changes)
// into the next one. Decode iterations that can neither admit a prefill nor
// complete a sequence are advanced as one run (see decodeRun), with the same
// results bit for bit.
//
// All latency bookkeeping is in float64 seconds on an internal wall clock
// that advances by exactly one tick per Step, so results depend only on the
// sequence of steps, never on host time or on concurrent runs.
type RequestQueue struct {
	now  float64 // wall clock, seconds since simulation start
	disc Discipline

	// waiting and active hold the records of queued requests. complete
	// returns a finished request's record to free and EnqueueRequest reuses
	// it, so a warm queue allocates no record. finishOp pops waiting's
	// front by reslicing: waiting is waitBuf[waitHead:], and pushWaiting
	// reclaims the waitHead slots stranded before it.
	waiting  []*queuedReq
	active   []*queuedReq
	free     []*queuedReq
	waitBuf  []*queuedReq
	waitHead int

	op         opKind
	opUnitLeft float64 // full-speed seconds of work remaining in the op
	opStart    float64 // wall clock when the op began

	// decodeUnit's memo: the step length of the last (weight term, batch)
	// it computed. The batch changes only when a sequence joins or leaves.
	unitW     float64
	unitBatch int
	unitSecs  float64

	// O(1) backlog bookkeeping (token sums over waiting/active).
	waitingPrompt float64
	waitingOutput float64
	activeOutLeft float64

	completions []Completion
}

// Idle reports whether the queue holds no work at all.
func (q *RequestQueue) Idle() bool {
	return q.op == opNone && len(q.waiting) == 0 && len(q.active) == 0
}

// WaitingLen returns the number of requests not yet prefilled.
func (q *RequestQueue) WaitingLen() int { return len(q.waiting) }

// SetDiscipline selects the scheduling discipline startOp uses to pick the
// next waiting request. Policies choose it per instance when the engine
// attaches the queue; changing it mid-run only affects subsequent prefills.
func (q *RequestQueue) SetDiscipline(d Discipline) { q.disc = d }

// Discipline returns the queue's scheduling discipline.
func (q *RequestQueue) Discipline() Discipline { return q.disc }

// ActiveLen returns the running decode batch size.
func (q *RequestQueue) ActiveLen() int { return len(q.active) }

// AttachQueue switches the instance into request-level replay mode: Step
// executes a continuous-batching queue instead of the fluid token drain. The
// queue's wall clock starts at `at` (the simulation time the instance begins
// serving), so latencies of requests admitted later are measured correctly.
func (in *Instance) AttachQueue(at time.Duration) {
	in.queue = &RequestQueue{now: at.Seconds(), unitBatch: -1}
}

// Queue returns the attached request queue, nil in fluid mode.
func (in *Instance) Queue() *RequestQueue { return in.queue }

// EnqueueRequest admits one request to the instance's queue (request-level
// replay mode only). The router calls it with requests whose arrival time
// precedes the current tick, so queueing delay is always non-negative.
func (in *Instance) EnqueueRequest(req Request) {
	in.enqueuedTokens += float64(req.TotalTokens())
	in.Touch(req.Customer)
	q := in.queue
	var r *queuedReq
	if n := len(q.free); n > 0 {
		r = q.free[n-1]
		q.free = q.free[:n-1]
		*r = queuedReq{req: req}
	} else {
		r = &queuedReq{req: req}
	}
	q.pushWaiting(r)
	q.waitingPrompt += float64(req.PromptTokens)
	q.waitingOutput += float64(req.OutputTokens)
}

// pushWaiting appends a record to waiting. When the backing array has no
// room after waiting and at least as many slots sit stranded before it as
// waiting holds, it moves waiting back to the array's start instead of
// growing the array, so each moved record is paid for by as many appends
// and a queue that pops as fast as it pushes keeps one array.
func (q *RequestQueue) pushWaiting(r *queuedReq) {
	if n := len(q.waiting); n == cap(q.waiting) {
		if q.waitHead == 0 || q.waitHead < n {
			q.waiting = append(q.waiting, r)
			q.waitBuf, q.waitHead = q.waiting[:cap(q.waiting)], 0
			return
		}
		copy(q.waitBuf, q.waiting)
		q.waiting, q.waitHead = q.waitBuf[:n], 0
	}
	q.waiting = append(q.waiting, r)
}

// DrainCompletions returns the latency records accumulated since the last
// drain and clears them. Returns nil in fluid mode.
func (in *Instance) DrainCompletions() []Completion {
	if in.queue == nil {
		return nil
	}
	out := in.queue.completions
	in.queue.completions = nil
	return out
}

// stepQueue is Step in request-level replay mode: it advances the queue's
// wall clock by dt, executing engine operations at the current SpeedFactor
// and carrying a partially finished operation across the tick boundary.
func (in *Instance) stepQueue(dt time.Duration) {
	q := in.queue
	in.enqueuedTokens = 0
	in.affinityNow += dt
	in.BusyFrac, in.PrefillShare = 0, 0
	dtSecs := in.tickSecs(dt)
	tickEnd := q.now + dtSecs
	t := q.now
	if in.reloadLeft > 0 {
		if in.reloadLeft >= dt {
			in.reloadLeft -= dt
			q.now = tickEnd
			in.BacklogSecs = in.DemandSeconds()
			return
		}
		t += in.reloadLeft.Seconds()
		in.reloadLeft = 0
	}
	// SpeedFactor clamps to [0,1]: values above 1 cannot serve faster than
	// the configuration's rates, and a fully frequency-capped instance
	// (SpeedFactor 0) makes no progress at all — the tick passes, the wall
	// clock advances, and every queued request keeps waiting. (The engine
	// always sets SpeedFactor before Step; NewInstance seeds it to 1 so
	// directly constructed instances serve at full speed.)
	sf := in.SpeedFactor
	if sf > 1 {
		sf = 1
	} else if sf < 0 {
		sf = 0
	}
	if sf == 0 {
		q.now = tickEnd
		in.BacklogSecs = in.DemandSeconds()
		return
	}
	var busySecs, prefillSecs float64
	for t < tickEnd {
		if q.op == opNone && !q.startOp(in, t) {
			break // drained: no waiting requests, no running batch
		}
		need := q.opUnitLeft / sf
		if rem := tickEnd - t; need > rem {
			// The op outlives the tick: consume the remaining budget and
			// carry the rest (opStart is preserved, so the spans recorded at
			// completion cover the full wall time).
			q.opUnitLeft -= rem * sf
			busySecs += rem
			if q.op == opPrefill {
				prefillSecs += rem
			}
			t = tickEnd
			break
		}
		busySecs += need
		if q.op == opPrefill {
			prefillSecs += need
		}
		t += need
		q.finishOp(in, t)
		if !q.canPrefill(in) {
			t, busySecs = q.decodeRun(in, t, tickEnd, sf, busySecs)
		}
	}
	q.now = tickEnd
	if busySecs > 0 {
		in.BusyFrac = units.Clamp01(busySecs / dtSecs)
		in.PrefillShare = units.Clamp01(prefillSecs / busySecs)
	}
	in.BacklogSecs = in.DemandSeconds()
}

// startOp picks the next engine operation, mirroring EngineSim: prefill a
// waiting request (discipline order) while the batch has room, otherwise run
// one decode iteration over the whole running batch. An unprefillable head
// (prefill rate zero) falls through to decode, so the running batch never
// starves behind a request that cannot start. Reports false when drained.
func (q *RequestQueue) startOp(in *Instance, t float64) bool {
	if q.canPrefill(in) {
		if idx := q.pickWaiting(in); idx > 0 {
			// Rotate the pick to the front, preserving the relative order of
			// the others; finishOp pops index 0. FIFO picks 0, so the rotate
			// is a no-op there and the historical order is bit-identical.
			r := q.waiting[idx]
			copy(q.waiting[1:idx+1], q.waiting[:idx])
			q.waiting[0] = r
		}
		r := q.waiting[0]
		q.op = opPrefill
		q.opUnitLeft = float64(r.req.PromptTokens) / in.prefillRate
		q.opStart = t
		r.queueDelay = t - r.req.Arrival.Seconds()
		return true
	}
	if len(q.active) > 0 {
		q.op = opDecode
		q.opUnitLeft = q.decodeUnit(in)
		q.opStart = t
		return true
	}
	return false
}

// canPrefill reports whether startOp admits a waiting request next: one is
// waiting, the running batch has room and the configuration can prefill.
func (q *RequestQueue) canPrefill(in *Instance) bool {
	return len(q.waiting) > 0 && len(q.active) < in.Config.MaxBatch && in.prefillRate > 0
}

// decodeUnit is the full-speed seconds of one decode iteration over the
// running batch: DecodeStepTime(in.Spec, in.Config, len(q.active)).Seconds()
// from the instance's cached weight-streaming term, memoized on that term
// and the batch size.
func (q *RequestQueue) decodeUnit(in *Instance) float64 {
	if len(q.active) != q.unitBatch || in.decodeW != q.unitW {
		q.unitW, q.unitBatch = in.decodeW, len(q.active)
		q.unitSecs = decodeStep(q.unitW, q.unitBatch).Seconds()
	}
	return q.unitSecs
}

// decodeRun advances, in one pass, the decode iterations that follow an op
// finished at wall time t when no prefill can start. Nothing changes the
// batch until a sequence completes, so every iteration has the same length;
// the run covers up to min(tokensLeft)−1 iterations that fit before tickEnd.
// It repeats only the scalar updates of stepQueue and finishOp, in their
// order, so every sum matches the per-iteration path bit for bit, and then
// touches each running sequence once: tokensLeft drops by the run length and
// maxTBT takes the largest actual span t_{j+1}−t_j (not need, which can
// differ from it in the low bits). The completing iteration and one that
// would cross tickEnd are left to stepQueue. It returns the new wall time
// and busy seconds.
func (q *RequestQueue) decodeRun(in *Instance, t, tickEnd, sf, busySecs float64) (float64, float64) {
	if len(q.active) == 0 {
		return t, busySecs
	}
	left := q.active[0].tokensLeft
	for _, r := range q.active[1:] {
		left = min(left, r.tokensLeft)
	}
	need := q.decodeUnit(in) / sf
	n := float64(len(q.active))
	served, outLeft := in.ServedTokens, q.activeOutLeft
	var span float64
	k := 0
	// need > 0, so need <= tickEnd-t also keeps t < tickEnd.
	for ; k < left-1 && need <= tickEnd-t; k++ {
		busySecs += need
		next := t + need
		if s := next - t; s > span {
			span = s
		}
		t = next
		served += n
		outLeft -= n
	}
	if k == 0 {
		return t, busySecs
	}
	in.ServedTokens, q.activeOutLeft = served, outLeft
	for _, r := range q.active {
		r.tokensLeft -= k
		if span > r.maxTBT {
			r.maxTBT = span
		}
	}
	return t, busySecs
}

// pickWaiting selects which waiting request the next prefill admits. FIFO is
// index 0; EDF scans for the earliest latest-allowable start — deadline
// (arrival + TTFT SLO) minus the prompt's prefill time — with ties keeping
// the lowest index, so the scan is deterministic. Callers guarantee
// in.prefillRate > 0.
func (q *RequestQueue) pickWaiting(in *Instance) int {
	if q.disc != EDF || len(q.waiting) < 2 {
		return 0
	}
	slo := in.SLOs.TTFT.Seconds()
	best, bestStart := 0, 0.0
	for i, r := range q.waiting {
		start := r.req.Arrival.Seconds() + slo - float64(r.req.PromptTokens)/in.prefillRate
		if i == 0 || start < bestStart {
			best, bestStart = i, start
		}
	}
	return best
}

// finishOp applies the effects of the completed operation at wall time t.
func (q *RequestQueue) finishOp(in *Instance, t float64) {
	switch q.op {
	case opPrefill:
		r := q.waiting[0]
		q.waiting[0] = nil
		q.waiting = q.waiting[1:]
		q.waitHead++
		q.waitingPrompt -= float64(r.req.PromptTokens)
		q.waitingOutput -= float64(r.req.OutputTokens)
		in.ServedTokens += float64(r.req.PromptTokens)
		r.firstToken = t
		if r.req.OutputTokens <= 0 {
			q.complete(in, r)
		} else {
			r.tokensLeft = r.req.OutputTokens
			q.active = append(q.active, r)
			q.activeOutLeft += float64(r.req.OutputTokens)
		}
	case opDecode:
		n := float64(len(q.active))
		in.ServedTokens += n
		q.activeOutLeft -= n
		keep := q.active[:0]
		for _, r := range q.active {
			r.tokensLeft--
			if span := t - q.opStart; span > r.maxTBT {
				r.maxTBT = span
			}
			if r.tokensLeft <= 0 {
				q.complete(in, r)
			} else {
				keep = append(keep, r)
			}
		}
		for i := len(keep); i < len(q.active); i++ {
			q.active[i] = nil // completed records are back on free
		}
		q.active = keep
	}
	q.op = opNone
	q.opUnitLeft = 0
}

// complete records a finished request, folds it into the instance's
// cumulative accounting and returns its record to free.
func (q *RequestQueue) complete(in *Instance, r *queuedReq) {
	ttft := r.firstToken - r.req.Arrival.Seconds()
	violated := ttft > in.SLOs.TTFT.Seconds() || r.maxTBT > in.SLOs.TBT.Seconds()
	in.CompletedRequests++
	in.QualityWeight += in.Config.Quality()
	if violated {
		in.SLOViolatedReqs++
	}
	q.completions = append(q.completions, Completion{
		Endpoint:   r.req.Endpoint,
		TTFT:       ttft,
		TBT:        r.maxTBT,
		QueueDelay: r.queueDelay,
		Violated:   violated,
	})
	q.free = append(q.free, r)
}

// queueDemandSeconds estimates the seconds of work queued in request-level
// replay mode: the in-flight op's remainder, waiting prompts at the prefill
// rate, and all outstanding output tokens at the full-batch decode rate.
func (in *Instance) queueDemandSeconds() float64 {
	q := in.queue
	pr, dr := in.prefillRate, in.decodeRate
	if pr <= 0 || dr <= 0 {
		return 0
	}
	return q.opUnitLeft + q.waitingPrompt/pr + (q.waitingOutput+q.activeOutLeft)/dr
}
