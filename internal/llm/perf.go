package llm

import (
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/units"
)

// Phase distinguishes the two execution phases of LLM inference (§3.3):
// prefill processes the whole prompt in parallel (compute-bound), decode
// generates output tokens one at a time (memory-bound).
type Phase int

const (
	Prefill Phase = iota
	Decode
)

func (p Phase) String() string {
	if p == Prefill {
		return "prefill"
	}
	return "decode"
}

// Hardware capability constants for the performance model. These are
// deliberately simple published-spec-shaped numbers; the experiments depend
// on relative behaviour across configurations, not on absolute token rates.
const (
	a100TFLOPs     = 312e12 // dense FP16 tensor-core peak per GPU
	h100TFLOPs     = 760e12
	a100MemBW      = 2.0e12 // HBM bytes/s per GPU
	h100MemBW      = 3.35e12
	computeMFU     = 0.45    // achievable fraction of peak FLOPs in prefill
	memMBU         = 0.60    // achievable fraction of peak bandwidth in decode
	kvStepOverhead = 0.00025 // seconds of extra decode step time per batch slot
	// decodeFreqWeight: decode is memory-bound, so frequency moves it far
	// less than prefill (§3.3 "prompt phases are more sensitive to GPU
	// frequency").
	decodeFreqWeight = 0.3
)

func gpuFLOPs(m layout.GPUModel) float64 {
	if m == layout.H100 {
		return h100TFLOPs
	}
	return a100TFLOPs
}

func gpuMemBW(m layout.GPUModel) float64 {
	if m == layout.H100 {
		return h100MemBW
	}
	return a100MemBW
}

// quantComputeBoost is the prefill speedup from FP8 execution.
func quantComputeBoost(q Quant) float64 {
	if q == FP8 {
		return 1.6
	}
	return 1
}

// prefillBatchEff models how batching amortizes kernel launch and scheduling
// overhead during prefill.
func prefillBatchEff(batch int) float64 {
	b := float64(batch)
	if b > 16 {
		b = 16
	}
	return 0.75 + 0.25*b/16
}

// PrefillRate returns prompt tokens/s for a configuration on the given
// hardware: compute-bound, linear in TP, frequency, and FP8 boost.
func PrefillRate(spec layout.GPUSpec, c Config) float64 {
	flops := gpuFLOPs(spec.Model) * float64(c.TP) * computeMFU
	perToken := 2 * c.Model.Params() // FLOPs per token ≈ 2 × params
	return flops / perToken * c.FreqFrac * quantComputeBoost(c.Quant) * prefillBatchEff(c.MaxBatch)
}

// DecodeStepTime returns the wall time of one decode iteration at a given
// running batch size: every step streams the full weights once, plus a KV
// overhead per batch slot. Frequency enters with a small weight only.
func DecodeStepTime(spec layout.GPUSpec, c Config, batch int) time.Duration {
	return decodeStep(decodeWeightSecs(spec.Model, c), batch)
}

// decodeWeightSecs is the weight-streaming term of a decode step, the part
// that depends only on the GPU generation and the configuration. Instances
// cache it (refreshRates) so request-level decode steps skip recomputing it.
func decodeWeightSecs(m layout.GPUModel, c Config) float64 {
	weightBytes := c.Model.Params() * c.Quant.BytesPerParam()
	bw := gpuMemBW(m) * float64(c.TP) * memMBU
	freqFactor := (1 - decodeFreqWeight) + decodeFreqWeight*c.FreqFrac
	return weightBytes / bw / freqFactor
}

// decodeStep adds the KV overhead of a running batch (at least one slot) to
// the weight-streaming term and rounds the step to a Duration.
func decodeStep(weightSecs float64, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	secs := weightSecs + kvStepOverhead*float64(batch)
	return time.Duration(secs * float64(time.Second))
}

// DecodeTokenRate returns aggregate output tokens/s at a running batch size.
func DecodeTokenRate(spec layout.GPUSpec, c Config, batch int) float64 {
	return tokenRate(decodeWeightSecs(spec.Model, c), batch)
}

// tokenRate is DecodeTokenRate from a decode step's weight-streaming term.
func tokenRate(weightSecs float64, batch int) float64 {
	step := decodeStep(weightSecs, batch).Seconds()
	return float64(batch) / step
}

// Workload characterizes the token shape of an endpoint's requests.
type Workload struct {
	AvgPromptTokens float64
	AvgOutputTokens float64
}

// DefaultWorkload mirrors a chat-style production mix.
func DefaultWorkload() Workload {
	return Workload{AvgPromptTokens: 1024, AvgOutputTokens: 256}
}

// SLO bounds per the paper: TTFT and TBT within 5× the unloaded execution
// time of the reference (quality-first) configuration.
const SLOFactor = 5.0

// SLOs holds the absolute latency bounds of an endpoint, derived from the
// unloaded latencies of the reference config.
type SLOs struct {
	TTFT time.Duration
	TBT  time.Duration
}

// ComputeSLOs derives the endpoint SLOs from a reference configuration.
func ComputeSLOs(spec layout.GPUSpec, ref Config, w Workload) SLOs {
	unloadedTTFT := w.AvgPromptTokens / PrefillRate(spec, ref)
	unloadedTBT := DecodeStepTime(spec, ref, 1)
	return SLOs{
		TTFT: time.Duration(SLOFactor * unloadedTTFT * float64(time.Second)),
		TBT:  time.Duration(SLOFactor) * unloadedTBT,
	}
}

// maxUtil is the sustained utilization beyond which queueing inflates TTFT
// past its SLO; goodput is evaluated at this operating point.
const maxUtil = 0.8

// Goodput returns sustainable tokens/s (prompt+output) for a configuration
// under the endpoint SLOs: the largest batch whose TBT meets the SLO is
// used, and throughput is taken at maxUtil occupancy (§3.3's definition:
// tokens/s while within TTFT and TBT SLOs).
func Goodput(spec layout.GPUSpec, c Config, w Workload, slos SLOs) float64 {
	batch := maxBatchWithinTBT(spec, c, slos)
	if batch == 0 {
		return 0
	}
	// Unloaded TTFT must itself fit the SLO, otherwise the config cannot
	// serve compliant requests at all.
	if prefTime := w.AvgPromptTokens / PrefillRate(spec, c); prefTime > slos.TTFT.Seconds() {
		return 0
	}
	dPre := w.AvgPromptTokens / PrefillRate(spec, c)
	dDec := w.AvgOutputTokens * DecodeStepTime(spec, c, batch).Seconds() / float64(batch)
	reqPerSec := maxUtil / (dPre + dDec)
	return reqPerSec * (w.AvgPromptTokens + w.AvgOutputTokens)
}

// maxBatchWithinTBT finds the largest batch ≤ c.MaxBatch whose decode step
// time meets the TBT SLO.
func maxBatchWithinTBT(spec layout.GPUSpec, c Config, slos SLOs) int {
	for b := c.MaxBatch; b >= 1; b-- {
		if DecodeStepTime(spec, c, b) <= slos.TBT {
			return b
		}
	}
	return 0
}

// GPU utilization per phase. TP concentration raises per-GPU pressure: the
// same work on fewer GPUs pushes each active GPU harder (§3.3, Fig. 15a).
// Smaller and quantized models have lower computational intensity per token
// and draw less power (Fig. 15c; Table 1).
func phaseUtil(p Phase, c Config) float64 {
	concentration := 1.0
	switch c.TP {
	case 4:
		concentration = 1.12
	case 2:
		concentration = 1.26
	}
	intensity := 1.0
	switch c.Model {
	case Llama13B:
		intensity = 0.92
	case Llama7B:
		intensity = 0.85
	}
	if c.Quant == FP8 {
		intensity *= 0.92
	}
	switch p {
	case Prefill:
		// Batching amortizes scheduling gaps; small batches leave the
		// compute pipeline partially idle (Fig. 15b shows reduced power in
		// both phases at smaller batch).
		base := 0.62 + 0.18*float64(c.MaxBatch)/64
		return units.Clamp01(base * concentration * intensity)
	default:
		base := 0.42 + 0.26*float64(c.MaxBatch)/64
		return units.Clamp01(base * concentration * intensity)
	}
}

// MemIntensity returns the memory-traffic intensity of a phase, which drives
// HBM temperature: small-batch decode fetches weights per token with no
// amortization (Fig. 15b).
func MemIntensity(p Phase, c Config) float64 {
	if p == Prefill {
		return 0.30
	}
	return 1 / (1 + float64(c.MaxBatch)/8)
}

// GPUPowerFrac returns the per-active-GPU power fraction (power/TDP) of a
// phase under a configuration at full instance load.
func GPUPowerFrac(spec layout.GPUSpec, c Config, p Phase) float64 {
	w := power.GPUPower(&spec, phaseUtil(p, c), c.FreqFrac)
	return w / spec.GPUTDPW
}

// ServerPowerW returns total server power for an instance running a phase at
// full load: TP active GPUs plus idle GPUs plus load-dependent components.
func ServerPowerW(spec layout.GPUSpec, c Config, p Phase) float64 {
	active := power.GPUPower(&spec, phaseUtil(p, c), c.FreqFrac) * float64(c.TP)
	idle := spec.GPUIdleW * float64(spec.GPUsPerServer-c.TP)
	loadFrac := phaseUtil(p, c) * float64(c.TP) / float64(spec.GPUsPerServer)
	return power.ServerPower(&spec, active+idle, loadFrac, 0.3+0.7*loadFrac)
}
