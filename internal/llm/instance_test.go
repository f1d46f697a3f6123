package llm

import (
	"math"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
)

func newTestInstance() *Instance {
	spec := layout.Spec(layout.A100)
	w := DefaultWorkload()
	return NewInstance(spec, DefaultConfig(), w, ComputeSLOs(spec, DefaultConfig(), w))
}

// entryAt characterizes c on the instance's hardware: the profile entry
// Reconfigure takes to switch the instance to c.
func entryAt(in *Instance, c Config) *ProfileEntry {
	e := Characterize(in.Spec, c, in.Work, in.SLOs)
	return &e
}

func TestInstanceIdleStep(t *testing.T) {
	in := newTestInstance()
	in.Step(time.Minute)
	if in.BusyFrac != 0 || in.ServedTokens != 0 {
		t.Error("idle instance must stay idle")
	}
	idleFrac := in.Spec.GPUIdleW / in.Spec.GPUTDPW
	if math.Abs(in.GPUPowerFrac()-idleFrac) > 1e-9 {
		t.Errorf("idle GPU power frac = %v, want %v", in.GPUPowerFrac(), idleFrac)
	}
}

func TestInstanceServesQueue(t *testing.T) {
	in := newTestInstance()
	in.EnqueueBulk(1024, 256)
	in.Touch(7)
	in.Step(time.Minute)
	if in.ServedTokens <= 0 {
		t.Fatal("instance served nothing")
	}
	if in.QueueTokens() > 1 {
		t.Errorf("one request should drain within a minute, %v tokens left", in.QueueTokens())
	}
	if in.CompletedRequests <= 0.5 {
		t.Errorf("completed = %v, want ≈ 1", in.CompletedRequests)
	}
	if !in.HasAffinity(7) {
		t.Error("served customer must have KV affinity")
	}
	if in.HasAffinity(8) {
		t.Error("unseen customer must not have affinity")
	}
}

func TestInstanceSaturation(t *testing.T) {
	in := newTestInstance()
	// Enqueue far more work than a tick can serve.
	for i := 0; i < 5000; i++ {
		in.EnqueueBulk(1024, 256)
	}
	in.Step(time.Minute)
	if in.BusyFrac < 0.99 {
		t.Errorf("saturated instance busy frac = %v, want ≈ 1", in.BusyFrac)
	}
	if in.BacklogSecs <= 0 {
		t.Error("saturated instance must report backlog")
	}
	if in.GPUPowerFrac() < 0.5 {
		t.Errorf("saturated GPU power frac = %v, want high", in.GPUPowerFrac())
	}
}

func TestInstanceThroughputMatchesGoodputModel(t *testing.T) {
	// A saturated fluid instance should serve tokens at roughly the
	// goodput-model capacity (without the 0.8 utilization margin).
	in := newTestInstance()
	for i := 0; i < 20000; i++ {
		in.EnqueueBulk(1024, 256)
	}
	var served float64
	for tick := 0; tick < 10; tick++ {
		before := in.ServedTokens
		in.Step(time.Minute)
		served += in.ServedTokens - before
	}
	perSec := served / 600
	g := Goodput(in.Spec, in.Config, in.Work, in.SLOs) / maxUtil // remove margin
	ratio := perSec / g
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("fluid throughput %v vs analytic capacity %v (ratio %.2f)", perSec, g, ratio)
	}
}

func TestInstanceReconfigureReload(t *testing.T) {
	in := newTestInstance()
	to := in.Config
	to.Model = Llama13B
	in.Reconfigure(entryAt(in, to))
	if !in.Reloading() {
		t.Fatal("model change must trigger reload")
	}
	in.EnqueueBulk(1024, 256)
	in.Step(10 * time.Second)
	if in.ServedTokens != 0 {
		t.Error("reloading instance must not serve")
	}
	in.Step(time.Minute)
	if in.Reloading() {
		t.Error("reload must complete")
	}
	if in.ServedTokens <= 0 {
		t.Error("instance must resume serving after reload; partial tick lost")
	}
}

func TestInstanceFreqChangeNoReload(t *testing.T) {
	in := newTestInstance()
	to := in.Config
	to.FreqFrac = 0.8
	in.Reconfigure(entryAt(in, to))
	if in.Reloading() {
		t.Error("frequency change must not reload")
	}
}

func TestInstanceQualityAccounting(t *testing.T) {
	in := newTestInstance()
	in.EnqueueBulk(10240, 2560)
	in.Step(time.Minute)
	if q := in.AvgQuality(); math.Abs(q-1) > 1e-9 {
		t.Errorf("70B FP16 avg quality = %v, want 1", q)
	}
	// Before serving anything, AvgQuality reports the config quality.
	fresh := newTestInstance()
	cfg := fresh.Config
	cfg.Model = Llama7B
	fresh.Reconfigure(entryAt(fresh, cfg))
	if q := fresh.AvgQuality(); q >= 1 {
		t.Errorf("7B config quality = %v, want < 1", q)
	}
}

func TestAffinityExpiryAndCap(t *testing.T) {
	in := newTestInstance()
	in.Touch(1)
	in.Step(affinityTTL + time.Minute)
	if in.HasAffinity(1) {
		t.Error("affinity must expire after TTL")
	}
	// Fill beyond cap; map must not grow unboundedly.
	for c := 0; c < 2*affinityCap; c++ {
		in.Touch(c)
	}
	if len(in.affinity) > affinityCap {
		t.Errorf("affinity map size %d exceeds cap %d", len(in.affinity), affinityCap)
	}
}

func TestDemandSeconds(t *testing.T) {
	in := newTestInstance()
	if in.DemandSeconds() != 0 {
		t.Error("empty instance demand must be 0")
	}
	in.EnqueueBulk(1024, 256)
	if in.DemandSeconds() <= 0 {
		t.Error("queued instance demand must be positive")
	}
}

// TestRehostRederivesRates moves an A100 instance onto H100 hardware: its
// cached rates and GPU power fractions must equal a fresh H100 instance's
// at the same configuration, while its queue and affinity stay.
func TestRehostRederivesRates(t *testing.T) {
	in := newTestInstance()
	in.EnqueueBulk(4096, 1024)
	in.Touch(7)
	queued := in.QueueTokens()
	h100 := layout.Spec(layout.H100)
	in.Rehost(h100)
	fresh := NewInstance(h100, in.Config, in.Work, in.SLOs)
	if in.PrefillRate() != fresh.PrefillRate() || in.DecodeRate() != fresh.DecodeRate() ||
		in.prefillFrac != fresh.prefillFrac || in.decodeFrac != fresh.decodeFrac ||
		in.gpuIdleFrac != fresh.gpuIdleFrac || in.slackFull != fresh.slackFull ||
		in.decodeW != fresh.decodeW || in.FullLoadPowerW() != fresh.FullLoadPowerW() {
		t.Error("rehosted instance keeps rates of its old hardware")
	}
	if in.QueueTokens() != queued || !in.HasAffinity(7) || in.Config != DefaultConfig() {
		t.Error("rehosting lost queued work, affinity or configuration")
	}
}
