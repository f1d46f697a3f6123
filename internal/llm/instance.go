package llm

import (
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/units"
)

// Instance is the fluid (per-tick) model of one LLM serving instance used by
// the cluster-scale simulator. Token queues are continuous quantities; each
// Step drains them at the rates of the current configuration, splitting time
// between prefill and decode in proportion to demand, as continuous batching
// does.
type Instance struct {
	Spec   layout.GPUSpec
	Config Config
	Work   Workload
	SLOs   SLOs

	pendingPrefill float64 // prompt tokens awaiting prefill
	pendingDecode  float64 // output tokens awaiting generation
	outputRatio    float64 // avg output-per-prompt-token ratio of queue
	reloadLeft     time.Duration

	// SpeedFactor scales serving rates to model hardware frequency capping
	// imposed from outside the instance (thermal throttle, power cap).
	// 1 means full speed. The fluid Step treats a non-positive value as
	// unset full speed; the request-level queue clamps to [0,1], where 0
	// stalls the instance entirely (a fully capped instance makes no
	// progress). NewInstance seeds it to 1.
	SpeedFactor float64

	// affinity holds recently served customers for KV-cache reuse routing.
	affinity    map[int]time.Duration
	affinityNow time.Duration

	// queue, when non-nil, switches the instance into request-level replay
	// mode: Step runs the discrete-event continuous-batching queue instead
	// of the fluid token drain. See AttachQueue.
	queue *RequestQueue

	// Per-tick outputs, refreshed by Step.
	BusyFrac     float64 // fraction of the tick spent serving
	PrefillShare float64 // fraction of busy time in prefill
	BacklogSecs  float64 // unserved demand at tick end, in seconds of work

	// enqueuedTokens accumulates tokens routed to the instance since the
	// last Step; the configurator reads it as the live demand signal.
	enqueuedTokens float64

	// Derived rates of the current configuration, cached because Step,
	// DemandSeconds and GPUPowerFrac run per instance per tick while the
	// configuration changes rarely. Refreshed by refreshRates.
	prefillRate float64 // PrefillRate(Spec, Config)
	decodeRate  float64 // DecodeTokenRate(Spec, Config, Config.MaxBatch)
	prefillFrac float64 // GPUPowerFrac(Spec, Config, Prefill)
	decodeFrac  float64 // GPUPowerFrac(Spec, Config, Decode)
	gpuIdleFrac float64 // Spec.GPUIdleW / Spec.GPUTDPW
	slackFull   float64 // TTFT slack at full speed: SLOs.TTFT - AvgPromptTokens/prefillRate

	// Step is called once per instance per tick with the same dt, so the
	// duration→seconds conversions are memoized on the dt value.
	lastDt     time.Duration
	cachedSecs float64
	cachedSub  float64

	// Cumulative accounting.
	ServedTokens      float64
	CompletedRequests float64
	QualityWeight     float64 // quality-weighted completed requests
	SLOViolatedReqs   float64

	// Cached Profile.Entry goodput lookup for ConfigGoodput: the router asks
	// for the current configuration's goodput every tick, while the
	// configuration (and profile) change rarely.
	gpProfile *Profile
	gpConfig  Config
	gpGoodput float64
	gpOK      bool
}

// ConfigGoodput returns p.Entry(in.Config).Goodput, memoized on (profile,
// config). Profiles are immutable once built, so the cache is sound.
func (in *Instance) ConfigGoodput(p *Profile) (float64, bool) {
	if in.gpProfile != p || in.gpConfig != in.Config {
		e, ok := p.Entry(in.Config)
		in.gpProfile, in.gpConfig, in.gpGoodput, in.gpOK = p, in.Config, e.Goodput, ok
	}
	return in.gpGoodput, in.gpOK
}

// NewInstance builds an instance at the given configuration.
func NewInstance(spec layout.GPUSpec, c Config, w Workload, slos SLOs) *Instance {
	in := &Instance{
		Spec: spec, Config: c, Work: w, SLOs: slos,
		SpeedFactor: 1,
		outputRatio: w.AvgOutputTokens / w.AvgPromptTokens,
		affinity:    make(map[int]time.Duration),
	}
	in.refreshRates()
	return in
}

// refreshRates recomputes the cached configuration-derived rates.
func (in *Instance) refreshRates() {
	in.prefillRate = PrefillRate(in.Spec, in.Config)
	in.decodeRate = DecodeTokenRate(in.Spec, in.Config, in.Config.MaxBatch)
	in.prefillFrac = GPUPowerFrac(in.Spec, in.Config, Prefill)
	in.decodeFrac = GPUPowerFrac(in.Spec, in.Config, Decode)
	in.gpuIdleFrac = in.Spec.GPUIdleW / in.Spec.GPUTDPW
	in.slackFull = in.SLOs.TTFT.Seconds() - in.Work.AvgPromptTokens/in.prefillRate
}

// PrefillRate returns PrefillRate(in.Spec, in.Config), cached by
// refreshRates.
func (in *Instance) PrefillRate() float64 { return in.prefillRate }

// DecodeRate returns DecodeTokenRate(in.Spec, in.Config, in.Config.MaxBatch),
// cached by refreshRates.
func (in *Instance) DecodeRate() float64 { return in.decodeRate }

// Enqueue adds a request's tokens to the instance queues.
func (in *Instance) Enqueue(req Request) {
	in.enqueuedTokens += float64(req.TotalTokens())
	in.pendingPrefill += float64(req.PromptTokens)
	// Output tokens become decode work once their prompt is prefilled; the
	// fluid model moves them over proportionally, so track the ratio.
	if req.PromptTokens > 0 {
		// Exponentially smooth the ratio toward the live mix.
		r := float64(req.OutputTokens) / float64(req.PromptTokens)
		in.outputRatio = 0.95*in.outputRatio + 0.05*r
	}
	in.Touch(req.Customer)
}

// EnqueueBulk adds aggregate token demand directly (used when the trace
// provides per-tick totals rather than individual requests).
func (in *Instance) EnqueueBulk(promptTokens, outputTokens float64) {
	in.enqueuedTokens += promptTokens + outputTokens
	in.pendingPrefill += promptTokens
	if promptTokens > 0 {
		in.outputRatio = 0.95*in.outputRatio + 0.05*(outputTokens/promptTokens)
	}
}

// QueueTokens returns the pending work in tokens (prompt + output).
func (in *Instance) QueueTokens() float64 {
	if q := in.queue; q != nil {
		return q.waitingPrompt + q.waitingOutput + q.activeOutLeft
	}
	return in.pendingPrefill + in.pendingDecode
}

// Reloading reports whether the instance is mid-reconfiguration.
func (in *Instance) Reloading() bool { return in.reloadLeft > 0 }

// Reconfigure switches the instance to a new configuration, incurring the
// reload penalty when the change requires one. Queued work is retained.
func (in *Instance) Reconfigure(to Config) {
	in.reloadLeft += ReconfigTime(in.Config, to)
	in.Config = to
	in.refreshRates()
}

// DemandSeconds estimates how many seconds of work currently sit in the
// queues under the present configuration.
func (in *Instance) DemandSeconds() float64 {
	if in.queue != nil {
		return in.queueDemandSeconds()
	}
	pr := in.prefillRate
	dr := in.decodeRate
	if pr <= 0 || dr <= 0 {
		return 0
	}
	future := in.pendingPrefill * in.outputRatio // decode work still to appear
	return in.pendingPrefill/pr + (in.pendingDecode+future)/dr
}

// TickEnqueued returns the tokens routed to the instance since the last
// Step — the demand signal the Instance Configurator sizes against.
func (in *Instance) TickEnqueued() float64 { return in.enqueuedTokens }

// StepDrained advances the instance by dt if and only if it is drained (no
// queued work, no reload in flight), reporting whether it applied — the
// exact state updates Step's drained early-return performs. The tick kernel
// pairs it with precompiled idle-server constants to skip the full physics
// of drained servers; callers must fall back to Step when it returns false.
func (in *Instance) StepDrained(dt time.Duration) bool {
	if q := in.queue; q != nil {
		if !q.Idle() || in.reloadLeft != 0 {
			return false
		}
		q.now += in.tickSecs(dt)
	} else if in.pendingPrefill != 0 || in.pendingDecode != 0 || in.reloadLeft != 0 {
		return false
	}
	in.enqueuedTokens = 0
	in.affinityNow += dt
	in.BusyFrac, in.PrefillShare, in.BacklogSecs = 0, 0, 0
	return true
}

// subSteps is the fluid Step's intra-tick resolution.
const subSteps = 4

// tickSecs converts the tick duration to seconds, memoized on the dt value
// because Step runs per instance per tick with the same dt.
func (in *Instance) tickSecs(dt time.Duration) float64 {
	if dt != in.lastDt {
		in.lastDt = dt
		in.cachedSecs = dt.Seconds()
		in.cachedSub = in.cachedSecs / subSteps
	}
	return in.cachedSecs
}

// Step advances the instance by dt, draining queues and updating telemetry.
// In request-level replay mode (AttachQueue) it instead executes the
// discrete-event continuous-batching queue.
func (in *Instance) Step(dt time.Duration) {
	if in.queue != nil {
		in.stepQueue(dt)
		return
	}
	in.enqueuedTokens = 0
	in.affinityNow += dt
	in.BusyFrac, in.PrefillShare = 0, 0
	if in.pendingPrefill == 0 && in.pendingDecode == 0 && in.reloadLeft == 0 {
		// Drained instance: the sub-step loop would move zero tokens and
		// land on exactly this telemetry, so skip it — drained instances
		// dominate off-peak ticks.
		in.BacklogSecs = 0
		return
	}
	if in.reloadLeft > 0 {
		if in.reloadLeft >= dt {
			in.reloadLeft -= dt
			in.BacklogSecs = in.DemandSeconds()
			return
		}
		dt -= in.reloadLeft
		in.reloadLeft = 0
	}
	secs := in.tickSecs(dt)
	if secs <= 0 {
		return
	}
	sf := in.SpeedFactor
	if sf <= 0 || sf > 1 {
		sf = 1
	}
	pr := in.prefillRate * sf
	dr := in.decodeRate * sf

	// Drain in sub-steps with decode priority, so prompt tokens prefetched
	// early in the tick get their decode work served within the same tick —
	// the fluid analogue of continuous batching keeping the running batch
	// fed while admitting prefills with leftover capacity.
	subBudget := in.cachedSub
	var donePrefill, doneDecode, prefillSecs, decodeSecs float64
	for i := 0; i < subSteps; i++ {
		// An exactly-empty queue contributes +0.0 to every accumulator
		// below, so skipping it (or the whole remaining tick once both are
		// empty) is bit-identical and saves the divisions.
		if in.pendingDecode == 0 && in.pendingPrefill == 0 {
			break
		}
		budget := subBudget
		if in.pendingDecode != 0 {
			tDec := in.pendingDecode / dr
			if tDec > budget {
				tDec = budget
			}
			in.pendingDecode -= tDec * dr
			doneDecode += tDec * dr
			decodeSecs += tDec
			budget -= tDec
		}

		// A zero remaining budget (decode consumed the whole sub-step
		// exactly) or an empty prefill queue makes the block a no-op.
		if budget != 0 && in.pendingPrefill != 0 {
			tPre := in.pendingPrefill / pr
			if tPre > budget {
				tPre = budget
			}
			prompt := tPre * pr
			in.pendingPrefill -= prompt
			in.pendingDecode += prompt * in.outputRatio
			donePrefill += prompt
			prefillSecs += tPre
		}
	}
	busySecs := prefillSecs + decodeSecs
	if busySecs == 0 {
		in.BacklogSecs = 0
		return
	}
	in.BusyFrac = units.Clamp01(busySecs / secs)
	in.PrefillShare = units.Clamp01(prefillSecs / busySecs)
	in.BacklogSecs = in.DemandSeconds()

	in.ServedTokens += donePrefill + doneDecode
	if in.Work.AvgOutputTokens > 0 {
		reqs := doneDecode / in.Work.AvgOutputTokens
		in.CompletedRequests += reqs
		in.QualityWeight += reqs * in.Config.Quality()
		// A request completed while the backlog exceeds the TTFT slack is
		// SLO-violated in the fluid approximation. At full speed pr equals
		// prefillRate bit for bit (x*1 == x), so the precomputed slack
		// applies; capped instances recompute against the scaled rate.
		slack := in.slackFull
		if sf != 1 {
			slack = in.SLOs.TTFT.Seconds() - in.Work.AvgPromptTokens/pr
		}
		if in.BacklogSecs > slack {
			in.SLOViolatedReqs += reqs
		}
	}
}

// GPUPowerFrac returns the current per-active-GPU power fraction given this
// tick's busy fraction and phase mix.
func (in *Instance) GPUPowerFrac() float64 {
	idleFrac := in.gpuIdleFrac
	if in.Reloading() {
		return idleFrac
	}
	busy := in.BusyFrac*in.PrefillShare*in.prefillFrac +
		in.BusyFrac*(1-in.PrefillShare)*in.decodeFrac
	return units.Clamp01(busy + (1-in.BusyFrac)*idleFrac)
}

// MemIntensityNow returns the current blended memory intensity for HBM
// temperature modelling.
func (in *Instance) MemIntensityNow() float64 {
	if in.BusyFrac == 0 {
		return 0
	}
	return in.PrefillShare*MemIntensity(Prefill, in.Config) +
		(1-in.PrefillShare)*MemIntensity(Decode, in.Config)
}

// ActiveGPUs returns how many of the server's GPUs this instance drives.
func (in *Instance) ActiveGPUs() int { return in.Config.TP }

// AvgQuality returns the quality-weighted average over completed requests.
func (in *Instance) AvgQuality() float64 {
	if in.CompletedRequests == 0 {
		return in.Config.Quality()
	}
	return in.QualityWeight / in.CompletedRequests
}

// affinityTTL bounds how long KV-cache reuse remains likely for a customer.
const affinityTTL = 10 * time.Minute

// affinityCap bounds the tracked customer set.
const affinityCap = 512

// Touch records that a customer was served now.
func (in *Instance) Touch(customer int) {
	if len(in.affinity) >= affinityCap {
		for k, seen := range in.affinity {
			if in.affinityNow-seen > affinityTTL {
				delete(in.affinity, k)
			}
		}
		if len(in.affinity) >= affinityCap {
			return // saturated with live customers; skip tracking
		}
	}
	in.affinity[customer] = in.affinityNow
}

// HasAffinity reports whether the customer's KV cache is likely still warm.
func (in *Instance) HasAffinity(customer int) bool {
	seen, ok := in.affinity[customer]
	return ok && in.affinityNow-seen <= affinityTTL
}
