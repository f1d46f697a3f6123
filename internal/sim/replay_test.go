package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// quickReplayScenario is the 80-server 20-minute smoke setup the replay
// round-trip tests simulate.
func quickReplayScenario() Scenario {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	return sc
}

// reportString folds every metric of a result into one full-precision string,
// so "byte-identical report" comparisons cover the whole result surface.
func reportString(r *Result) string {
	return fmt.Sprintf("policy=%s ticks=%d maxT=%v p99T=%v peakW=%v p99W=%v throttle=%v powercap=%v svc=%v slo=%v qual=%v iaas=%v rejects=%d",
		r.Policy, r.Ticks, r.MaxTemp(), r.PercentileMaxTemp(99), r.PeakPower(),
		r.PercentilePeakPower(99), r.ThrottleFrac(), r.PowerCapFrac(),
		r.ServiceRate(), r.SLOViolationRate(), r.AvgQuality(), r.IaaSPerfLoss(), r.PlacementRejects)
}

// TestReplayReproducesGeneratedRun is the record/replay contract at the sim
// layer: exporting a generated workload to CSV and replaying the parsed copy
// produces a report byte-identical to the original generated run, across a
// grid of workload configs.
func TestReplayReproducesGeneratedRun(t *testing.T) {
	for _, saas := range []float64{0, 0.5, 1} {
		for _, seed := range []uint64{7, 42} {
			t.Run(fmt.Sprintf("saas=%v/seed=%d", saas, seed), func(t *testing.T) {
				sc := quickReplayScenario()
				sc.Workload.SaaSFraction = saas
				sc.Workload.Seed = seed

				genRes, err := Run(sc, naivePolicy{})
				if err != nil {
					t.Fatal(err)
				}

				wl, err := GenerateWorkload(sc)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := trace.WriteWorkloadCSV(&buf, wl); err != nil {
					t.Fatal(err)
				}
				parsed, err := trace.ReadWorkloadCSV(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(parsed, wl) {
					t.Fatal("workload differs after CSV round trip")
				}

				replay := sc
				replay.Trace = parsed
				repRes, err := Run(replay, naivePolicy{})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := reportString(repRes), reportString(genRes); got != want {
					t.Errorf("replay report differs from generated run:\ngot:  %s\nwant: %s", got, want)
				}
				if !reflect.DeepEqual(repRes, genRes) {
					t.Error("replay result not deeply equal to generated run")
				}
			})
		}
	}
}

// TestCustomerIDsAreLabels: a customer ID only groups IaaS VMs, so
// relabeling every IaaS customer c of a replayed trace to c+2^50 must replay
// to the same result bits under TAPAS (which places by per-customer peaks)
// and the baseline. A table sized by the largest ID would exceed Go's
// allocation limit at 2^50 and panic before allocating; the panic is
// recovered so it fails this test instead of the test binary.
func TestCustomerIDsAreLabels(t *testing.T) {
	sc := quickReplayScenario()
	wl, err := GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	huge := *wl
	huge.VMs = append([]trace.VMSpec(nil), wl.VMs...)
	for i := range huge.VMs {
		if huge.VMs[i].Kind == trace.IaaS {
			huge.VMs[i].Customer += 1 << 50
		}
	}
	for _, pol := range []struct {
		name string
		new  func() Policy
	}{
		{"tapas", func() Policy { return core.NewFull() }},
		{"baseline", func() Policy { return core.NewBaseline() }},
	} {
		t.Run(pol.name, func(t *testing.T) {
			run := func(w *trace.Workload) (res *Result, err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("run panicked: %v", p)
					}
				}()
				rsc := sc
				rsc.Trace = w
				return Run(rsc, pol.new())
			}
			want, err := run(wl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := run(&huge)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fingerprintResult(got), fingerprintResult(want); g != w {
				t.Errorf("relabeled customers changed the result:\ngot:\n%s\nwant:\n%s", g, w)
			}
		})
	}
}

// TestGenerateWorkloadAppliesTransforms: GenerateWorkload materializes the
// workload exactly as Compile would, chain included — the contract behind
// "tapas-trace -transform output replays byte-identically to the in-spec
// chain".
func TestGenerateWorkloadAppliesTransforms(t *testing.T) {
	sc := quickReplayScenario()
	wl, err := GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	chain := transform.Chain{&transform.DemandScale{Factor: 1.5, Seed: 9}}
	replay := sc
	replay.Trace = wl
	replay.TraceTransforms = chain
	got, err := GenerateWorkload(replay)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chain.Apply(wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("GenerateWorkload did not apply the transform chain like Compile")
	}
}

// TestReplayValidation pins the loud-failure paths (fleet-size mismatch,
// over-long runs, empty traces), and that a reused compilation ignores a
// swapped trace or chain.
func TestReplayValidation(t *testing.T) {
	sc := quickReplayScenario()
	wl, err := GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("fleet mismatch", func(t *testing.T) {
		bad := sc
		bad.Trace = wl
		bad.Oversubscribe = 0.4 // grows the fleet past the recorded 80 servers
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "recorded for") {
			t.Errorf("got %v, want fleet-size mismatch error", err)
		}
	})
	t.Run("duration beyond window", func(t *testing.T) {
		bad := sc
		bad.Trace = wl
		bad.Duration = wl.Config.Duration + time.Hour
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "exceeds the replay trace") {
			t.Errorf("got %v, want window error", err)
		}
	})
	t.Run("empty trace", func(t *testing.T) {
		bad := sc
		bad.Trace = &trace.Workload{Config: wl.Config}
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "no VMs") {
			t.Errorf("got %v, want empty-trace error", err)
		}
	})
	t.Run("shifted VM ids", func(t *testing.T) {
		// The engine indexes VM state positionally; a programmatic trace
		// with ids not equal to their index must be rejected, not replayed
		// into silent corruption (or a panic at expiry).
		shifted := *wl
		shifted.VMs = append([]trace.VMSpec(nil), wl.VMs...)
		for i := range shifted.VMs {
			shifted.VMs[i].ID = i + 1
		}
		bad := sc
		bad.Trace = &shifted
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "VM ids must be dense") {
			t.Errorf("got %v, want dense-id rejection", err)
		}
	})
	t.Run("shifted endpoint ids", func(t *testing.T) {
		shifted := *wl
		shifted.Endpoints = append([]trace.EndpointSpec(nil), wl.Endpoints...)
		for i := range shifted.Endpoints {
			shifted.Endpoints[i].ID = i + 3
		}
		bad := sc
		bad.Trace = &shifted
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "endpoint ids must be dense") {
			t.Errorf("got %v, want dense-endpoint-id rejection", err)
		}
	})
	t.Run("saas fraction out of range", func(t *testing.T) {
		// A programmatic trace meets the CSV reader's config check.
		mix := *wl
		mix.Config.SaaSFraction = 1.5
		bad := sc
		bad.Trace = &mix
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "saas_fraction 1.5 out of [0,1]") {
			t.Errorf("got %v, want saas_fraction rejection", err)
		}
	})
	t.Run("zero avg prompt tokens", func(t *testing.T) {
		// Instances divide by the endpoint's mean prompt length; at 0 the
		// division poisons every SaaS metric with NaN.
		zero := *wl
		zero.Endpoints = append([]trace.EndpointSpec(nil), wl.Endpoints...)
		zero.Endpoints[0].Work.AvgPromptTokens = 0
		bad := sc
		bad.Trace = &zero
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "non-positive avg_prompt_tokens 0") {
			t.Errorf("got %v, want avg_prompt_tokens rejection", err)
		}
	})
	t.Run("unsorted arrivals", func(t *testing.T) {
		shuffled := *wl
		shuffled.VMs = append([]trace.VMSpec(nil), wl.VMs...)
		last := len(shuffled.VMs) - 1
		shuffled.VMs[last].Arrival = -1 // sorts before every 0-arrival resident
		bad := sc
		bad.Trace = &shuffled
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "sorted by arrival") {
			t.Errorf("got %v, want sorted-arrival rejection", err)
		}
	})
	t.Run("transforms without trace", func(t *testing.T) {
		bad := sc
		bad.TraceTransforms = transform.Chain{&transform.DemandScale{Factor: 2}}
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "requires a replay Trace") {
			t.Errorf("got %v, want transforms-without-trace rejection", err)
		}
	})
	t.Run("invalid transform chain", func(t *testing.T) {
		bad := sc
		bad.Trace = wl
		bad.TraceTransforms = transform.Chain{&transform.TimeWarp{Factor: -3}}
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "transform") {
			t.Errorf("got %v, want chain validation error", err)
		}
	})
	t.Run("warp shrinks window below duration", func(t *testing.T) {
		bad := sc
		bad.Trace = wl
		bad.TraceTransforms = transform.Chain{&transform.TimeWarp{Factor: 0.25}}
		_, err := Compile(bad)
		if err == nil || !strings.Contains(err.Error(), "exceeds the replay trace") {
			t.Errorf("got %v, want window error on the warped trace", err)
		}
	})
	// A ForScenario copy adopts only runtime-only fields: one given another
	// chain or trace keeps the compiled one and runs like the compilation.
	t.Run("variant swaps transform chain", func(t *testing.T) {
		good := sc
		good.Trace = wl
		good.TraceTransforms = transform.Chain{&transform.DemandScale{Factor: 1}}
		cs, err := Compile(good)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cs.Run(naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		swapped := good
		swapped.TraceTransforms = transform.Chain{&transform.DemandScale{Factor: 2}}
		got, err := cs.ForScenario(swapped).Run(naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if reportString(got) != reportString(want) {
			t.Error("a copy given another chain ran unlike the compilation")
		}
		// Runtime-only changes over a transformed trace still apply.
		slower := good
		slower.Tick = 2 * time.Minute
		res, err := cs.ForScenario(slower).Run(naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tick != slower.Tick {
			t.Errorf("copy ran at tick %v, want %v", res.Tick, slower.Tick)
		}
	})
	t.Run("variant swaps trace", func(t *testing.T) {
		good := sc
		good.Trace = wl
		cs, err := Compile(good)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cs.Run(naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		other := *wl
		other.VMs = other.VMs[:len(other.VMs)/2]
		swapped := good
		swapped.Trace = &other
		got, err := cs.ForScenario(swapped).Run(naivePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if reportString(got) != reportString(want) {
			t.Error("a copy given another trace ran unlike the compilation")
		}
	})
}
