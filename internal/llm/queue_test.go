package llm

import (
	"math"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/regress"
)

func queueInstance(c Config) *Instance {
	spec := layout.Spec(layout.A100)
	w := DefaultWorkload()
	in := NewInstance(spec, c, w, ComputeSLOs(spec, DefaultConfig(), w))
	in.AttachQueue(0)
	return in
}

// TestDecodeUnitMatchesDecodeStepTime pins the request queue's decode step,
// built from the instance's cached weight-streaming term, to DecodeStepTime
// by float bits: every configuration of both generations, every running
// batch from 0 to MaxBatch+1, after Reconfigure and after Rehost across
// generations. The cached decode rate and full-load power must follow too.
func TestDecodeUnitMatchesDecodeStepTime(t *testing.T) {
	specs := []layout.GPUSpec{layout.Spec(layout.A100), layout.Spec(layout.H100)}
	w := DefaultWorkload()
	active := make([]*queuedReq, 66)
	check := func(in *Instance, after string) {
		t.Helper()
		// The batch the last check left comes first, so a change of the
		// weight term alone must refresh decodeUnit's memo.
		batches := []int{len(in.queue.active)}
		for n := 0; n <= in.Config.MaxBatch+1; n++ {
			batches = append(batches, n)
		}
		for _, n := range batches {
			in.queue.active = active[:n]
			got, want := in.queue.decodeUnit(in), DecodeStepTime(in.Spec, in.Config, n).Seconds()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v on %v after %s, batch %d: decodeUnit = %v, DecodeStepTime = %v", in.Config, in.Spec.Model, after, n, got, want)
			}
		}
		if got, want := in.DecodeRate(), DecodeTokenRate(in.Spec, in.Config, in.Config.MaxBatch); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v on %v after %s: decode rate %v, DecodeTokenRate %v", in.Config, in.Spec.Model, after, got, want)
		}
		if got, want := in.FullLoadPowerW(), power.ServerPowerAtUniformLoad(&in.Spec, 1); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v after %s: full-load power %v W, want %v W", in.Spec.Model, after, got, want)
		}
	}
	for i, spec := range specs {
		in := NewInstance(spec, DefaultConfig(), w, ComputeSLOs(spec, DefaultConfig(), w))
		in.AttachQueue(0)
		check(in, "NewInstance")
		for _, c := range ConfigSpace(spec) {
			in.Reconfigure(entryAt(in, c))
			check(in, "Reconfigure")
			in.Rehost(specs[1-i])
			check(in, "Rehost")
			in.Rehost(spec)
			check(in, "Rehost back")
		}
	}
}

// TestQueueSingleRequestLatencies pins the analytic latencies of one request
// served alone: TTFT is the prompt's prefill time, TBT one single-sequence
// decode step, queueing delay zero.
func TestQueueSingleRequestLatencies(t *testing.T) {
	in := queueInstance(DefaultConfig())
	req := Request{ID: 1, Endpoint: 2, PromptTokens: 1000, OutputTokens: 10}
	in.EnqueueRequest(req)
	for i := 0; i < 10 && len(in.Queue().completions) == 0; i++ {
		in.Step(10 * time.Second)
	}
	comps := in.DrainCompletions()
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	c := comps[0]
	if c.Endpoint != 2 {
		t.Errorf("endpoint %d, want 2", c.Endpoint)
	}
	wantTTFT := float64(req.PromptTokens) / PrefillRate(in.Spec, in.Config)
	if math.Abs(c.TTFT-wantTTFT) > 1e-9 {
		t.Errorf("TTFT %v, want %v", c.TTFT, wantTTFT)
	}
	wantTBT := DecodeStepTime(in.Spec, in.Config, 1).Seconds()
	if math.Abs(c.TBT-wantTBT) > 1e-9 {
		t.Errorf("TBT %v, want %v", c.TBT, wantTBT)
	}
	if c.QueueDelay != 0 {
		t.Errorf("queue delay %v, want 0", c.QueueDelay)
	}
	if c.Violated {
		t.Error("unloaded request flagged as SLO-violated")
	}
	if in.CompletedRequests != 1 {
		t.Errorf("CompletedRequests %v, want 1", in.CompletedRequests)
	}
	if want := float64(req.TotalTokens()); in.ServedTokens != want {
		t.Errorf("ServedTokens %v, want %v", in.ServedTokens, want)
	}
}

// TestQueueMatchesEngineSim cross-validates the tick-driven queue against the
// self-clocked EngineSim on an identical burst: with every request present at
// t=0 both models execute the same operation sequence, so per-request TTFT
// and TBT must agree to floating-point noise regardless of tick size.
func TestQueueMatchesEngineSim(t *testing.T) {
	cfg := Config{Model: Llama70B, Quant: FP16, TP: 8, MaxBatch: 4, FreqFrac: 1}
	var reqs []Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, Request{
			ID: int64(i), Customer: i % 3,
			PromptTokens: 500 + 100*i, OutputTokens: 20 + i,
		})
	}
	spec := layout.Spec(layout.A100)
	slos := ComputeSLOs(spec, DefaultConfig(), DefaultWorkload())
	ref := NewEngineSim(spec, cfg).Run(reqs, time.Hour, slos)

	in := queueInstance(cfg)
	for _, r := range reqs {
		in.EnqueueRequest(r)
	}
	var comps []Completion
	for i := 0; i < 10000 && len(comps) < len(reqs); i++ {
		in.Step(time.Second)
		comps = append(comps, in.DrainCompletions()...)
	}
	if len(comps) != ref.Completed {
		t.Fatalf("queue completed %d, EngineSim %d", len(comps), ref.Completed)
	}
	// Both models run the same op sequence, so the latency samples agree and
	// identical percentile evaluations must too.
	ttfts := make([]float64, 0, len(comps))
	tbts := make([]float64, 0, len(comps))
	for _, c := range comps {
		ttfts = append(ttfts, c.TTFT)
		tbts = append(tbts, c.TBT)
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"TTFT p50", regress.Percentile(ttfts, 50), ref.TTFTP50.Seconds()},
		{"TTFT p99", regress.Percentile(ttfts, 99), ref.TTFTP99.Seconds()},
		{"TBT p99", regress.Percentile(tbts, 99), ref.TBTP99.Seconds()},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > 1e-6*c.want {
			t.Errorf("%s: queue %v, EngineSim %v", c.name, c.got, c.want)
		}
	}
}

// TestQueueOpCarriesAcrossTicks pins tick-size independence: the same burst
// served with 1s ticks and with 30s ticks yields completions whose latencies
// agree to floating-point noise, because a partially executed operation
// carries its remaining work and true start time across tick boundaries.
func TestQueueOpCarriesAcrossTicks(t *testing.T) {
	cfg := Config{Model: Llama70B, Quant: FP16, TP: 8, MaxBatch: 16, FreqFrac: 1}
	var reqs []Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, Request{ID: int64(i), PromptTokens: 2000, OutputTokens: 50})
	}
	run := func(tick time.Duration) []Completion {
		in := queueInstance(cfg)
		for _, r := range reqs {
			in.EnqueueRequest(r)
		}
		var comps []Completion
		for i := 0; i < 100000 && len(comps) < len(reqs); i++ {
			in.Step(tick)
			comps = append(comps, in.DrainCompletions()...)
		}
		return comps
	}
	fine, coarse := run(time.Second), run(30*time.Second)
	if len(fine) != len(reqs) || len(coarse) != len(reqs) {
		t.Fatalf("completions: fine %d, coarse %d, want %d", len(fine), len(coarse), len(reqs))
	}
	for i := range fine {
		if math.Abs(fine[i].TTFT-coarse[i].TTFT) > 1e-6 {
			t.Errorf("req %d TTFT: fine %v, coarse %v", i, fine[i].TTFT, coarse[i].TTFT)
		}
		if math.Abs(fine[i].TBT-coarse[i].TBT) > 1e-6 {
			t.Errorf("req %d TBT: fine %v, coarse %v", i, fine[i].TBT, coarse[i].TBT)
		}
	}
}

// TestQueueSpeedFactorSlowsServing pins that a capped instance (SpeedFactor
// 0.5) takes twice the wall time for the same prefill work.
func TestQueueSpeedFactorSlowsServing(t *testing.T) {
	run := func(sf float64) float64 {
		in := queueInstance(DefaultConfig())
		in.SpeedFactor = sf
		in.EnqueueRequest(Request{ID: 1, PromptTokens: 4000, OutputTokens: 0})
		for i := 0; i < 100 && len(in.Queue().completions) == 0; i++ {
			in.Step(time.Second)
		}
		comps := in.DrainCompletions()
		if len(comps) != 1 {
			t.Fatalf("sf=%v: got %d completions", sf, len(comps))
		}
		return comps[0].TTFT
	}
	full, half := run(1), run(0.5)
	if math.Abs(half-2*full) > 1e-9 {
		t.Errorf("TTFT at half speed %v, want 2× full-speed %v", half, full)
	}
}

// TestQueueSpeedFactorZeroStalls is the regression test for the SpeedFactor
// guard: a fully frequency-capped instance (SpeedFactor 0) must make no
// progress at all — previously the guard silently reset it to full speed.
// The wall clock still advances, so queueing delay keeps accumulating.
func TestQueueSpeedFactorZeroStalls(t *testing.T) {
	in := queueInstance(DefaultConfig())
	in.SpeedFactor = 0
	in.EnqueueRequest(Request{ID: 1, PromptTokens: 100, OutputTokens: 5})
	for i := 0; i < 50; i++ {
		in.Step(time.Second)
	}
	if got := in.DrainCompletions(); len(got) != 0 {
		t.Fatalf("stalled instance completed %d requests, want 0", len(got))
	}
	if in.ServedTokens != 0 {
		t.Errorf("stalled instance served %v tokens, want 0", in.ServedTokens)
	}
	if in.Queue().WaitingLen() != 1 {
		t.Errorf("waiting %d, want the stalled request still queued", in.Queue().WaitingLen())
	}
	// Restore speed: the request completes, and its TTFT covers the stall.
	in.SpeedFactor = 1
	for i := 0; i < 100 && len(in.Queue().completions) == 0; i++ {
		in.Step(time.Second)
	}
	comps := in.DrainCompletions()
	if len(comps) != 1 {
		t.Fatalf("got %d completions after un-stalling, want 1", len(comps))
	}
	if comps[0].TTFT < 50 {
		t.Errorf("TTFT %v does not cover the 50s stall", comps[0].TTFT)
	}
}

// TestQueueSpeedFactorMonotoneTTFT is the property the frequency-capping
// model relies on: lowering SpeedFactor never lowers any request's recorded
// TTFT, and SpeedFactor 0 completes nothing at all.
func TestQueueSpeedFactorMonotoneTTFT(t *testing.T) {
	reqs := []Request{
		{ID: 0, PromptTokens: 1500, OutputTokens: 10},
		{ID: 1, PromptTokens: 700, OutputTokens: 25, Arrival: 3 * time.Second},
		{ID: 2, PromptTokens: 2400, OutputTokens: 5, Arrival: 7 * time.Second},
	}
	run := func(sf float64) []Completion {
		in := queueInstance(DefaultConfig())
		in.SpeedFactor = sf
		for _, r := range reqs {
			in.EnqueueRequest(r)
		}
		var comps []Completion
		for i := 0; i < 2000 && len(comps) < len(reqs); i++ {
			in.Step(time.Second)
			comps = append(comps, in.DrainCompletions()...)
		}
		return comps
	}
	if got := run(0); len(got) != 0 {
		t.Fatalf("SpeedFactor 0 completed %d requests, want 0", len(got))
	}
	prev := run(1)
	if len(prev) != len(reqs) {
		t.Fatalf("full speed completed %d of %d", len(prev), len(reqs))
	}
	for _, sf := range []float64{0.8, 0.5, 0.3, 0.1} {
		cur := run(sf)
		if len(cur) != len(reqs) {
			t.Fatalf("sf=%v completed %d of %d", sf, len(cur), len(reqs))
		}
		for i := range cur {
			if cur[i].TTFT < prev[i].TTFT-1e-9 {
				t.Errorf("sf=%v request %d TTFT %v below faster run's %v", sf, i, cur[i].TTFT, prev[i].TTFT)
			}
		}
		prev = cur
	}
}

// TestQueueDecodeRunsPastUnprefillableHead is the decode-starvation
// regression test: with an active decode batch and a head-of-line request
// that cannot prefill (prefill rate zero), startOp must fall through to
// decode — previously it returned false and the running batch starved.
func TestQueueDecodeRunsPastUnprefillableHead(t *testing.T) {
	in := queueInstance(Config{Model: Llama70B, Quant: FP16, TP: 8, MaxBatch: 1, FreqFrac: 1})
	// Size the decode phase to span a few seconds so the batch is observably
	// active between ticks.
	out := int(2.0/DecodeStepTime(in.Spec, in.Config, 1).Seconds()) + 10
	in.EnqueueRequest(Request{ID: 1, PromptTokens: 100, OutputTokens: out})
	// Admit request 1 into the decode batch (MaxBatch 1 keeps request 2 out).
	for i := 0; i < 100 && in.Queue().ActiveLen() == 0; i++ {
		in.Step(100 * time.Millisecond)
	}
	if in.Queue().ActiveLen() != 1 {
		t.Fatal("request 1 never entered the decode batch")
	}
	in.EnqueueRequest(Request{ID: 2, PromptTokens: 100, OutputTokens: 1})
	in.prefillRate = 0 // the waiting head can no longer start
	var comps []Completion
	for i := 0; i < 100 && len(comps) == 0; i++ {
		in.Step(time.Second)
		comps = append(comps, in.DrainCompletions()...)
	}
	if len(comps) != 1 || comps[0].Endpoint != 0 {
		t.Fatalf("active batch starved behind the unprefillable head: %+v", comps)
	}
	if in.Queue().WaitingLen() != 1 {
		t.Errorf("waiting %d, want the unprefillable request still queued", in.Queue().WaitingLen())
	}
}

// TestQueueEDFPrefersTightestDeadline pins the EDF discipline: with equal
// arrivals, the longer prompt has the earlier latest-allowable prefill start
// (deadline − prompt/prefillRate), so EDF admits it first while FIFO keeps
// arrival order.
func TestQueueEDFPrefersTightestDeadline(t *testing.T) {
	short := Request{ID: 1, PromptTokens: 200, OutputTokens: 0}
	long := Request{ID: 2, PromptTokens: 4000, OutputTokens: 0}
	firstDone := func(d Discipline) int {
		in := queueInstance(Config{Model: Llama70B, Quant: FP16, TP: 8, MaxBatch: 1, FreqFrac: 1})
		in.Queue().SetDiscipline(d)
		in.EnqueueRequest(short)
		in.EnqueueRequest(long)
		for i := 0; i < 1000; i++ {
			in.Step(time.Second)
			if comps := in.DrainCompletions(); len(comps) > 0 {
				return comps[0].Endpoint
			}
		}
		t.Fatal("no completion")
		return -1
	}
	// Endpoint doubles as a marker: tag the requests by endpoint ID.
	short.Endpoint, long.Endpoint = 1, 2
	if got := firstDone(FIFO); got != 1 {
		t.Errorf("FIFO served endpoint %d first, want the earlier-queued short prompt (1)", got)
	}
	if got := firstDone(EDF); got != 2 {
		t.Errorf("EDF served endpoint %d first, want the tighter-deadline long prompt (2)", got)
	}
}

// TestQueueSLOViolationFlag pins the violation check: impossible SLO bounds
// flag every completion and count it in SLOViolatedReqs.
func TestQueueSLOViolationFlag(t *testing.T) {
	spec := layout.Spec(layout.A100)
	w := DefaultWorkload()
	in := NewInstance(spec, DefaultConfig(), w, SLOs{TTFT: time.Nanosecond, TBT: time.Nanosecond})
	in.AttachQueue(0)
	in.EnqueueRequest(Request{ID: 1, PromptTokens: 1000, OutputTokens: 5})
	for i := 0; i < 100 && len(in.Queue().completions) == 0; i++ {
		in.Step(time.Second)
	}
	comps := in.DrainCompletions()
	if len(comps) != 1 || !comps[0].Violated {
		t.Fatalf("want one violated completion, got %+v", comps)
	}
	if in.SLOViolatedReqs != 1 {
		t.Errorf("SLOViolatedReqs %v, want 1", in.SLOViolatedReqs)
	}
}

// TestQueueStepDrained pins the drained fast path in replay mode: it applies
// only when the queue is empty, and keeps the wall clock advancing so a
// request arriving later still measures a correct queueing delay.
func TestQueueStepDrained(t *testing.T) {
	in := queueInstance(DefaultConfig())
	if !in.StepDrained(time.Minute) {
		t.Fatal("StepDrained false on an idle queue")
	}
	// The clock advanced while idle: a request that arrived at t=30s and is
	// admitted at t=60s has 30s of queueing delay before prefill starts.
	in.EnqueueRequest(Request{ID: 1, PromptTokens: 1000, OutputTokens: 0, Arrival: 30 * time.Second})
	if in.StepDrained(time.Minute) {
		t.Fatal("StepDrained true with a queued request")
	}
	in.Step(time.Minute)
	comps := in.DrainCompletions()
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	if got := comps[0].QueueDelay; math.Abs(got-30) > 1e-9 {
		t.Errorf("queue delay %v, want 30s", got)
	}
}

// TestQueueZeroOutputCompletesAtPrefill pins that a prompt-only request
// finishes at prefill end with zero TBT.
func TestQueueZeroOutputCompletesAtPrefill(t *testing.T) {
	in := queueInstance(DefaultConfig())
	in.EnqueueRequest(Request{ID: 1, PromptTokens: 100, OutputTokens: 0})
	in.Step(time.Minute)
	comps := in.DrainCompletions()
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	if comps[0].TBT != 0 {
		t.Errorf("TBT %v, want 0", comps[0].TBT)
	}
	if !in.Queue().Idle() {
		t.Error("queue not idle after the only request completed")
	}
}

// TestEnqueueAndStepAllocFree pins the storage of queued requests: once the
// queue is warm, enqueueing requests for customers already in the affinity
// map and stepping the instance until they complete allocates nothing. The
// records come back from the queue's free list, and the waiting list
// reclaims the slots its popped front left behind instead of growing.
func TestEnqueueAndStepAllocFree(t *testing.T) {
	in := queueInstance(DefaultConfig())
	id := int64(0)
	burst := func() {
		for c := 0; c < 3; c++ {
			in.EnqueueRequest(Request{ID: id, Customer: c, PromptTokens: 256 + 128*c, OutputTokens: 8 + 4*c, Arrival: time.Duration(in.queue.now * float64(time.Second))})
			id++
		}
		in.Step(2 * time.Second)
		// The engine drains completions once per instance, at departure;
		// keep their buffer so its growth is not counted here.
		in.queue.completions = in.queue.completions[:0]
	}
	for i := 0; i < 10; i++ {
		burst()
	}
	if !in.queue.Idle() {
		t.Fatalf("a burst left %d waiting and %d running requests", in.queue.WaitingLen(), in.queue.ActiveLen())
	}
	completed := in.CompletedRequests
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Errorf("enqueue and step allocate %.1f times per burst, want 0", allocs)
	}
	if got := in.CompletedRequests - completed; got != 3*101 {
		t.Errorf("%v requests completed over 101 bursts, want %d", got, 3*101)
	}
}
