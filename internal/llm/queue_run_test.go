package llm

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/units"
)

// stepQueueStepwise is the request queue's Step without decode runs: every
// decode iteration goes through startOp and finishOp on its own. It is the
// oracle TestRequestQueueRunsMatchStepwise checks stepQueue against.
func (in *Instance) stepQueueStepwise(dt time.Duration) {
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
			break
		}
		need := q.opUnitLeft / sf
		if rem := tickEnd - t; need > rem {
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
	}
	q.now = tickEnd
	if busySecs > 0 {
		in.BusyFrac = units.Clamp01(busySecs / dtSecs)
		in.PrefillShare = units.Clamp01(prefillSecs / busySecs)
	}
	in.BacklogSecs = in.DemandSeconds()
}

// stateDiff compares, bit for bit, everything a tick can change on two
// request-level instances: the per-tick outputs, the cumulative accounting
// and the whole queue, waiting and running requests included. It names the
// first difference, or returns "".
func stateDiff(got, want *Instance) string {
	var diff string
	label := func(name string, i int) string {
		if i >= 0 {
			return fmt.Sprintf(name, i)
		}
		return name
	}
	float := func(name string, i int, g, w float64) {
		if gb, wb := math.Float64bits(g), math.Float64bits(w); diff == "" && gb != wb {
			diff = fmt.Sprintf("%s: got %v (%#x), want %v (%#x)", label(name, i), g, gb, w, wb)
		}
	}
	count := func(name string, i int, g, w int64) {
		if diff == "" && g != w {
			diff = fmt.Sprintf("%s: got %d, want %d", label(name, i), g, w)
		}
	}
	float("ServedTokens", -1, got.ServedTokens, want.ServedTokens)
	float("BusyFrac", -1, got.BusyFrac, want.BusyFrac)
	float("PrefillShare", -1, got.PrefillShare, want.PrefillShare)
	float("BacklogSecs", -1, got.BacklogSecs, want.BacklogSecs)
	float("CompletedRequests", -1, got.CompletedRequests, want.CompletedRequests)
	float("QualityWeight", -1, got.QualityWeight, want.QualityWeight)
	float("SLOViolatedReqs", -1, got.SLOViolatedReqs, want.SLOViolatedReqs)
	count("reloadLeft", -1, int64(got.reloadLeft), int64(want.reloadLeft))
	gq, wq := got.queue, want.queue
	float("now", -1, gq.now, wq.now)
	count("op", -1, int64(gq.op), int64(wq.op))
	float("opUnitLeft", -1, gq.opUnitLeft, wq.opUnitLeft)
	float("opStart", -1, gq.opStart, wq.opStart)
	float("waitingPrompt", -1, gq.waitingPrompt, wq.waitingPrompt)
	float("waitingOutput", -1, gq.waitingOutput, wq.waitingOutput)
	float("activeOutLeft", -1, gq.activeOutLeft, wq.activeOutLeft)
	for _, l := range []struct {
		name string
		g, w []*queuedReq
	}{{"waiting", gq.waiting, wq.waiting}, {"active", gq.active, wq.active}} {
		count("len("+l.name+")", -1, int64(len(l.g)), int64(len(l.w)))
		if diff != "" {
			return diff
		}
		p := l.name + "[%d]."
		id, left, first, delay, tbt := p+"ID", p+"tokensLeft", p+"firstToken", p+"queueDelay", p+"maxTBT"
		for i, w := range l.w {
			g := l.g[i]
			count(id, i, g.req.ID, w.req.ID)
			count(left, i, int64(g.tokensLeft), int64(w.tokensLeft))
			float(first, i, g.firstToken, w.firstToken)
			float(delay, i, g.queueDelay, w.queueDelay)
			float(tbt, i, g.maxTBT, w.maxTBT)
		}
	}
	return diff
}

// TestRequestQueueRunsMatchStepwise is the oracle for decode runs: stepQueue
// and the per-iteration stepQueueStepwise are driven on the same random
// request streams, and after every tick every Completion field, the per-tick
// outputs, the cumulative accounting and the queue state must agree bit for
// bit. The streams cover MaxBatch 1, 4, 16 and 64, SpeedFactor 1, 0.7, 0.33
// and 0, FIFO and EDF, zero- and one-token outputs, ticks that do not divide
// the 20 s reload (so reloads end mid-tick), Reconfigure between ticks,
// including a MaxBatch shrink below the running batch, and spells of prefill
// rate zero.
func TestRequestQueueRunsMatchStepwise(t *testing.T) {
	const streams, ticks = 40, 200
	batches := []int{1, 4, 16, 64}
	speeds := []float64{1, 0.7, 0.33, 0}
	tickLens := []time.Duration{700 * time.Millisecond, time.Second, 1500 * time.Millisecond, 3 * time.Second}
	rng := rand.New(rand.NewPCG(14, 2026))
	for s := 0; s < streams; s++ {
		spec := layout.Spec(layout.A100)
		if s%3 == 2 {
			spec = layout.Spec(layout.H100)
		}
		space := ConfigSpace(spec)
		randomConfig := func(batch int) Config {
			for {
				if c := space[rng.IntN(len(space))]; c.MaxBatch == batch {
					return c
				}
			}
		}
		cfg := randomConfig(batches[s%len(batches)])
		disc := FIFO
		if s/len(batches)%2 == 1 {
			disc = EDF
		}
		dt := tickLens[rng.IntN(len(tickLens))]
		at := time.Duration(rng.IntN(5000)) * time.Millisecond
		rate := []float64{0.3, 2, 8}[rng.IntN(3)] // arrivals per second
		slos := ComputeSLOs(spec, DefaultConfig(), DefaultWorkload())
		runs, oracle := NewInstance(spec, cfg, DefaultWorkload(), slos), NewInstance(spec, cfg, DefaultWorkload(), slos)
		for _, in := range []*Instance{runs, oracle} {
			in.AttachQueue(at)
			in.Queue().SetDiscipline(disc)
		}
		sf := 1.0
		next := at
		var id int64
		completed := 0
		for tick := 0; tick < ticks; tick++ {
			// Poisson arrivals before the tick starts, as the engine routes
			// them.
			for start := at + time.Duration(tick)*dt; next < start; {
				req := Request{
					ID:           id,
					Endpoint:     int(id % 3),
					PromptTokens: rng.IntN(3000),
					OutputTokens: 2 + rng.IntN(300),
					Arrival:      next,
				}
				next += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
				switch rng.IntN(10) {
				case 0:
					req.OutputTokens = 0
				case 1:
					req.OutputTokens = 1
				}
				id++
				runs.EnqueueRequest(req)
				oracle.EnqueueRequest(req)
			}
			switch r := rng.IntN(100); {
			case r < 1: // any configuration; a model, quantization or TP change reloads for 20 s
				c := randomConfig(batches[rng.IntN(len(batches))])
				runs.Reconfigure(c)
				oracle.Reconfigure(c)
			case r < 3: // shrink the batch limit below the running batch
				c := runs.Config
				c.MaxBatch = 1
				runs.Reconfigure(c)
				oracle.Reconfigure(c)
			case r < 5: // a spell in which nothing can prefill
				runs.prefillRate, oracle.prefillRate = 0, 0
			case r < 12: // the rate comes back (a no-op when it never left)
				runs.refreshRates()
				oracle.refreshRates()
			}
			if rng.IntN(8) == 0 {
				sf = speeds[rng.IntN(len(speeds))]
			}
			runs.SpeedFactor, oracle.SpeedFactor = sf, sf
			runs.Step(dt)
			oracle.stepQueueStepwise(dt)

			got, want := runs.DrainCompletions(), oracle.DrainCompletions()
			if len(got) != len(want) {
				t.Fatalf("stream %d tick %d: %d completions, want %d", s, tick, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Endpoint != w.Endpoint || g.Violated != w.Violated ||
					math.Float64bits(g.TTFT) != math.Float64bits(w.TTFT) ||
					math.Float64bits(g.TBT) != math.Float64bits(w.TBT) ||
					math.Float64bits(g.QueueDelay) != math.Float64bits(w.QueueDelay) {
					t.Fatalf("stream %d tick %d completion %d: got %+v, want %+v", s, tick, i, g, w)
				}
			}
			completed += len(want)
			if d := stateDiff(runs, oracle); d != "" {
				t.Fatalf("stream %d tick %d: %s", s, tick, d)
			}
		}
		if completed == 0 {
			t.Fatalf("stream %d (%v, %v ticks, %v arrivals/s) completed no requests", s, cfg, dt, rate)
		}
	}
}
