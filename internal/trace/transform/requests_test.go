package transform

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
)

// replicated is the log a demand_scale step must produce from reqs: copies(rq)
// adjacent copies of each request in order, with IDs re-densified.
func replicated(reqs []llm.Request, copies func(llm.Request) int) []llm.Request {
	var out []llm.Request
	for _, rq := range reqs {
		for j := 0; j < copies(rq); j++ {
			out = append(out, rq)
		}
	}
	for i := range out {
		out[i].ID = int64(i)
	}
	return out
}

// byHash returns the copy count demand_scale keeps of a request at SaaS
// factor f: the whole part of f, plus one when the hash of the request's
// original ID and the seed falls below the fractional part.
func byHash(f float64, seed uint64) func(llm.Request) int {
	return func(rq llm.Request) int {
		n := int(f)
		if trace.HashUnit(seed^requestScaleSalt, uint64(rq.ID)) < f-math.Floor(f) {
			n++
		}
		return n
	}
}

// TestApplyRequests pins Chain.ApplyRequests, the request-log half of a
// transform chain: on every chain it accepts, the output passes
// trace.ValidateRequests, repeats exactly on a second call, and leaves the
// input untouched; the ops a flat log cannot follow are refused.
func TestApplyRequests(t *testing.T) {
	w := genWorkload(t, 0.5, 3)
	in := w.Endpoints[0].Requests(0, 30*time.Minute, 1)
	if len(in) < 100 {
		t.Fatalf("only %d requests in the input log", len(in))
	}
	orig := slices.Clone(in)
	same := func(t *testing.T, out []llm.Request) {
		if len(out) != len(in) || &out[0] != &in[0] {
			t.Error("the chain did not return its input")
		}
	}
	equals := func(want []llm.Request) func(*testing.T, []llm.Request) {
		return func(t *testing.T, out []llm.Request) {
			if !reflect.DeepEqual(out, want) {
				t.Errorf("got %d requests, want %d (or different ones)", len(out), len(want))
			}
		}
	}
	warped := slices.Clone(in)
	for i := range warped {
		warped[i].Arrival = scaleDur(warped[i].Arrival, 2.5)
	}
	for _, tc := range []struct {
		name    string
		chain   Chain
		check   func(*testing.T, []llm.Request)
		wantErr string
	}{
		{name: "empty chain", check: same},
		{name: "saas factor 1", chain: Chain{&DemandScale{IaaS: 2, SaaS: 1}}, check: same},
		{name: "time warp", chain: Chain{&TimeWarp{Factor: 2.5}}, check: equals(warped)},
		{name: "identity warp", chain: Chain{&TimeWarp{Factor: 1}}, check: same},
		{name: "integer factor", chain: Chain{&DemandScale{Factor: 3}},
			check: equals(replicated(in, func(llm.Request) int { return 3 }))},
		{name: "fractional thinning", chain: Chain{&DemandScale{SaaS: 0.5, Seed: 7}},
			check: equals(replicated(in, byHash(0.5, 7)))},
		{name: "fractional replication", chain: Chain{&DemandScale{Factor: 1.5, Seed: 7}},
			check: equals(replicated(in, byHash(1.5, 7)))},
		{name: "warp then thin", chain: Chain{&TimeWarp{Factor: 2.5}, &DemandScale{SaaS: 0.5, Seed: 7}},
			check: equals(replicated(warped, byHash(0.5, 7)))},
		{name: "thinned to nothing", chain: Chain{&DemandScale{SaaS: 1e-9}}, wantErr: "thinned away every request"},
		{name: "invalid step", chain: Chain{&TimeWarp{Factor: -1}}, wantErr: "out of"},
		{name: "endpoint_filter", chain: Chain{&EndpointFilter{Keep: []int{0}}}, wantErr: "does not apply to request logs"},
		{name: "jitter", chain: Chain{&Jitter{Sigma: Dur(time.Minute)}}, wantErr: "does not apply to request logs"},
		{name: "splice", chain: Chain{&Splice{Trace: "other.csv"}}, wantErr: "does not apply to request logs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.chain.ApplyRequests(in)
			if !reflect.DeepEqual(in, orig) {
				t.Fatal("ApplyRequests mutated its input")
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, out)
			if err := trace.ValidateRequests(out, len(w.Endpoints)); err != nil {
				t.Errorf("output fails ValidateRequests: %v", err)
			}
			again, err := tc.chain.ApplyRequests(in)
			if err != nil || !reflect.DeepEqual(again, out) {
				t.Errorf("a second call returned another log (err %v)", err)
			}
		})
	}
}

// TestApplyRequestsThinsBySeed checks that the fractional case above is not
// vacuous: half the requests survive, and another seed keeps others.
func TestApplyRequestsThinsBySeed(t *testing.T) {
	in := genWorkload(t, 0.5, 3).Endpoints[0].Requests(0, 30*time.Minute, 1)
	a, err := Chain{&DemandScale{SaaS: 0.5, Seed: 7}}.ApplyRequests(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chain{&DemandScale{SaaS: 0.5, Seed: 8}}.ApplyRequests(in)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a); n < len(in)/3 || n > 2*len(in)/3 {
		t.Errorf("kept %d of %d requests at factor 0.5", n, len(in))
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 7 and 8 kept the same requests")
	}
}

// TestApplyRequestsCap: a replicating step that would exceed the request cap
// fails before it allocates the output.
func TestApplyRequestsCap(t *testing.T) {
	in := make([]llm.Request, maxRequests/maxScaleFactor+1)
	for i := range in {
		in[i].ID = int64(i)
	}
	if _, err := (Chain{&DemandScale{Factor: maxScaleFactor}}).ApplyRequests(in); err == nil || !strings.Contains(err.Error(), "request cap") {
		t.Errorf("err = %v, want a request-cap error", err)
	}
}
