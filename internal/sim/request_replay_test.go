package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// syntheticRequests builds a deterministic request log spread over the first
// window of the run, cycling through eps endpoints and a small customer
// population (so KV-cache affinity routing has repeats to latch onto).
func syntheticRequests(n, eps int, window time.Duration) []llm.Request {
	reqs := make([]llm.Request, n)
	for i := range reqs {
		reqs[i] = llm.Request{
			ID:           int64(i),
			Customer:     i % 37,
			Endpoint:     i % eps,
			PromptTokens: 256 + (i%7)*128,
			OutputTokens: 32 + (i%5)*16,
			Arrival:      time.Duration(i) * window / time.Duration(n),
		}
	}
	return reqs
}

// requestScenario is the small fleet running in request-level replay mode
// with a tick fine enough that admission quantization does not drown the
// latency signal.
func requestScenario(reqs []llm.Request) Scenario {
	sc := SmallScenario()
	sc.Duration = 10 * time.Minute
	sc.Tick = time.Second
	sc.Requests = reqs
	return sc
}

// TestRequestReplayPopulatesSLOAccounting is the end-to-end contract of
// request-level replay: every request in the log (arrivals well inside the
// horizon) completes, per-endpoint accounting sums to the aggregate, and the
// latency samples are sane (non-negative queueing delay, positive TTFT).
func TestRequestReplayPopulatesSLOAccounting(t *testing.T) {
	const n = 400
	reqs := syntheticRequests(n, 2, 7*time.Minute)
	cs, err := Compile(requestScenario(reqs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cs.Run(core.NewBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RequestsCompleted(AllEndpoints); got != n {
		t.Fatalf("completed %d of %d requests", got, n)
	}
	sum := 0
	for ep := 0; ep < res.RequestEndpoints(); ep++ {
		sum += res.RequestsCompleted(ep)
		if res.RequestsCompleted(ep) == 0 {
			t.Errorf("endpoint %d completed no requests", ep)
		}
	}
	if sum != n {
		t.Errorf("per-endpoint completions sum to %d, want %d", sum, n)
	}
	if p := res.TTFTPercentile(AllEndpoints, 50); p <= 0 {
		t.Errorf("TTFT p50 %v, want > 0", p)
	}
	if p := res.TBTPercentile(AllEndpoints, 99); p <= 0 {
		t.Errorf("TBT p99 %v, want > 0", p)
	}
	for ep, samples := range res.ReqQueueDelay {
		for i, q := range samples {
			if q < 0 {
				t.Fatalf("endpoint %d sample %d: negative queueing delay %v", ep, i, q)
			}
		}
	}
	if a := res.SLOAttainment(AllEndpoints); a < 0 || a > 1 {
		t.Errorf("SLO attainment %v out of [0,1]", a)
	}
	if res.SaaSServedTokens <= 0 {
		t.Error("request replay served no tokens")
	}
}

// TestRequestLogValidation: Compile admits a request log only through
// trace.ValidateRequests, bounded by the workload's endpoint set (the small
// scenario has 3 endpoints).
func TestRequestLogValidation(t *testing.T) {
	cases := map[string]struct {
		edit    func(reqs []llm.Request)
		wantSub string
	}{
		"endpoint beyond the workload": {func(r []llm.Request) { r[3].Endpoint = 3 }, "request 3: endpoint 3, but the workload has 3 endpoints"},
		"negative endpoint":            {func(r []llm.Request) { r[3].Endpoint = -1 }, "request 3: negative endpoint -1"},
		"negative tokens":              {func(r []llm.Request) { r[4].OutputTokens = -1 }, "request 4: negative token count"},
		"unsorted":                     {func(r []llm.Request) { r[5].Arrival = r[4].Arrival - 1 }, "request 5: arrival"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			reqs := syntheticRequests(20, 3, time.Minute)
			tc.edit(reqs)
			_, err := Compile(requestScenario(reqs))
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("got %v, want an error containing %q", err, tc.wantSub)
			}
		})
	}
}

// TestRequestReplayAttainmentMonotone is the property the demand_scale sweep
// relies on: a SaaS factor ≥ 1 keeps every recorded request and adds
// replicas, so each request's latency weakly increases and SLO attainment is
// monotone non-increasing in the factor.
func TestRequestReplayAttainmentMonotone(t *testing.T) {
	base := syntheticRequests(400, 2, 7*time.Minute)
	prev := 2.0 // above any attainable fraction
	for _, f := range []float64{1, 2, 4} {
		chain := transform.Chain{&transform.DemandScale{SaaS: f}}
		scaled, err := chain.ApplyRequests(base)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(base) * int(f); len(scaled) != want {
			t.Fatalf("factor %v: %d requests, want %d", f, len(scaled), want)
		}
		cs, err := Compile(requestScenario(scaled))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cs.Run(core.NewBaseline())
		if err != nil {
			t.Fatal(err)
		}
		att := res.SLOAttainment(AllEndpoints)
		if att > prev+1e-12 {
			t.Errorf("factor %v: attainment %.6f rose above %.6f at the lower factor", f, att, prev)
		}
		prev = att
	}
}

// TestRequestLogCacheKey pins the keying contract: scenarios differing only
// in their request log must not share a cache key, and an empty log keys
// identically to the pre-request-mode encoding (binned-mode keys are stable
// across this feature).
func TestRequestLogCacheKey(t *testing.T) {
	reqs := syntheticRequests(50, 2, 5*time.Minute)
	withLog := requestScenario(reqs)
	k1, err := ScenarioKey(withLog)
	if err != nil {
		t.Fatal(err)
	}
	same := requestScenario(reqs)
	k2, err := ScenarioKey(same)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical request logs produced different keys")
	}
	tweaked := append([]llm.Request(nil), reqs...)
	tweaked[0].PromptTokens++
	k3, err := ScenarioKey(requestScenario(tweaked))
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("tweaked request log shares the original's key")
	}
	k4, err := ScenarioKey(requestScenario(nil))
	if err != nil {
		t.Fatal(err)
	}
	if k4 == k1 {
		t.Error("empty log shares a key with a populated one")
	}
}
