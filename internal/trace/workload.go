package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"github.com/tapas-sim/tapas/internal/llm"
)

// VMKind distinguishes opaque customer VMs from provider-managed inference
// VMs (§3.2).
type VMKind int

const (
	IaaS VMKind = iota
	SaaS
)

func (k VMKind) String() string {
	if k == SaaS {
		return "SaaS"
	}
	return "IaaS"
}

// VMSpec is one GPU VM in the arrival trace. Each VM occupies a full server
// (§3.1: "these VMs occupy a full server").
type VMSpec struct {
	ID       int
	Kind     VMKind
	Customer int // IaaS customer identity (shared load shapes per customer)
	Endpoint int // SaaS endpoint index; -1 for IaaS
	Arrival  time.Duration
	Lifetime time.Duration
	Load     LoadPattern // IaaS GPU load; unused for SaaS (requests drive it)
}

// Active reports whether the VM exists at time t. Pointer receiver: the
// spec embeds a LoadPattern and the simulator asks per placed VM per tick —
// a value receiver would copy the whole struct each call.
func (v *VMSpec) Active(t time.Duration) bool {
	return t >= v.Arrival && t < v.Arrival+v.Lifetime
}

// EndpointSpec is one SaaS inference endpoint: a set of VMs serving one
// model behind a load balancer (§3.2).
type EndpointSpec struct {
	ID            int
	NumVMs        int
	Work          llm.Workload
	Rate          LoadPattern // demand shape over time
	PeakRPSPerVM  float64     // requests/s per VM at Rate == 1
	CustomerCount int
	Seed          uint64
}

// DemandTokens returns the aggregate (prompt, output) token demand of the
// endpoint over a tick starting at t — the fluid-simulation view of the
// request stream.
func (e EndpointSpec) DemandTokens(t, tick time.Duration) (prompt, output float64) {
	rps := e.PeakRPSPerVM * float64(e.NumVMs) * e.Rate.At(t)
	n := rps * tick.Seconds()
	return n * e.Work.AvgPromptTokens, n * e.Work.AvgOutputTokens
}

// Requests generates the individual request stream in [from, to) for
// fine-grained simulation: Poisson arrivals at the endpoint rate, lognormal
// token counts, Zipf customers.
func (e EndpointSpec) Requests(from, to time.Duration, seed uint64) []llm.Request {
	rng := rand.New(rand.NewPCG(e.Seed, seed))
	var out []llm.Request
	id := int64(e.ID) << 32
	t := from
	for t < to {
		rps := e.PeakRPSPerVM * float64(e.NumVMs) * e.Rate.At(t)
		if rps <= 0 {
			t += time.Second
			continue
		}
		gap := rng.ExpFloat64() / rps
		t += time.Duration(gap * float64(time.Second))
		if t >= to {
			break
		}
		prompt := int(lognormal(rng, math.Log(e.Work.AvgPromptTokens)-0.5, 1.0))
		output := int(lognormal(rng, math.Log(e.Work.AvgOutputTokens)-0.32, 0.8))
		out = append(out, llm.Request{
			ID:           id,
			Customer:     zipfSample(rng, e.CustomerCount),
			Endpoint:     e.ID,
			PromptTokens: clampInt(prompt, 16, 8192),
			OutputTokens: clampInt(output, 8, 2048),
			Arrival:      t,
		})
		id++
	}
	return out
}

func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// zipfSample draws from a Zipf(s≈1.1) distribution over [0, n) using
// inverse-CDF on the harmonic weights; cheap approximation adequate for
// affinity skew.
func zipfSample(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Weight(i) ∝ 1/(i+1)^1.1; invert via rejection-free approximation:
	// draw u and walk a geometric-ish index. For modest n a direct inverse
	// using the continuous approximation is fine.
	u := rng.Float64()
	// CDF of continuous pareto-like density over [1, n+1).
	s := 0.1 // exponent − 1
	x := math.Pow(1-u*(1-math.Pow(float64(n+1), -s)), -1/s)
	idx := int(x) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// WorkloadConfig parameterizes workload generation.
type WorkloadConfig struct {
	Servers      int     // cluster capacity in servers (one VM per server)
	SaaSFraction float64 // fraction of VMs that are SaaS (paper: 50/50 mix)
	Duration     time.Duration
	Endpoints    int // number of SaaS endpoints (paper: 10)
	Seed         uint64
	// Occupancy is the target fraction of servers hosting a VM (default 0.92).
	Occupancy float64
	// DemandScale scales SaaS request rates relative to fleet serving
	// capacity (0 selects the default 0.8: loaded endpoints whose diurnal
	// peaks approach instance saturation, as production endpoints are sized
	// to do). Negative values are refused.
	DemandScale float64
}

// Workload is a generated cluster workload.
type Workload struct {
	Config    WorkloadConfig
	VMs       []VMSpec
	Endpoints []EndpointSpec
}

// Validate checks the invariants every consumer of a workload relies on,
// through the same per-record checks ReadWorkloadCSV applies to each row
// (validateConfig, validateEndpoint, validateVM): a workload built in memory
// (an import, a transform's output, a programmatic Scenario.Trace) is held
// to exactly the rules of the archived format.
func (w *Workload) Validate() error {
	if err := validateConfig(&w.Config); err != nil {
		return fmt.Errorf("trace: workload config: %w", err)
	}
	for i := range w.Endpoints {
		if err := validateEndpoint(&w.Endpoints[i], i); err != nil {
			return fmt.Errorf("trace: endpoint %d: %w", i, err)
		}
	}
	if len(w.VMs) == 0 {
		return fmt.Errorf("trace: workload has no VMs")
	}
	for i := range w.VMs {
		if err := w.validateVM(i, &w.VMs[i]); err != nil {
			return fmt.Errorf("trace: VM %d: %w", i, err)
		}
	}
	return nil
}

// validateConfig checks a workload's generation config.
func validateConfig(c *WorkloadConfig) error {
	if c.Servers <= 0 {
		return fmt.Errorf("non-positive server count %d", c.Servers)
	}
	if !(c.SaaSFraction >= 0 && c.SaaSFraction <= 1) {
		return fmt.Errorf("saas_fraction %v out of [0,1]", c.SaaSFraction)
	}
	if c.Duration < 0 {
		return fmt.Errorf("negative duration %v", c.Duration)
	}
	if !(c.DemandScale >= 0) {
		return fmt.Errorf("negative demand_scale %v", c.DemandScale)
	}
	return nil
}

// validateEndpoint checks ep as endpoint id of a workload. The engine
// indexes endpoint state by ID (Workload.Endpoints[id]), so IDs must be dense
// and in order, which also rules out duplicates; instances divide by the
// mean prompt length, so it must be positive. The endpoint's demand is the
// product of its request rate and token counts (DemandTokens), so a negative
// output length or rate would silently unload the fleet.
func validateEndpoint(ep *EndpointSpec, id int) error {
	if ep.ID != id {
		return fmt.Errorf("endpoint id %d, want %d (endpoint ids must be dense 0..n-1 in order)", ep.ID, id)
	}
	if ep.NumVMs < 0 {
		return fmt.Errorf("negative endpoint num_vms %d", ep.NumVMs)
	}
	if !(ep.Work.AvgPromptTokens > 0) {
		return fmt.Errorf("non-positive avg_prompt_tokens %v", ep.Work.AvgPromptTokens)
	}
	if !(ep.Work.AvgOutputTokens >= 0) {
		return fmt.Errorf("negative avg_output_tokens %v", ep.Work.AvgOutputTokens)
	}
	if !(ep.PeakRPSPerVM >= 0) {
		return fmt.Errorf("negative peak_rps_per_vm %v", ep.PeakRPSPerVM)
	}
	return nil
}

// validateVM checks vm as VM id of w, whose endpoints and VMs before id are
// already checked. The engine indexes VM state positionally (State.VMs[id])
// and admits arrivals through a monotone cursor, so IDs must be dense in
// order and arrivals non-decreasing: a shifted ID would remove the wrong VM
// at expiry, an out-of-order arrival would be admitted late.
func (w *Workload) validateVM(id int, vm *VMSpec) error {
	if vm.ID != id {
		return fmt.Errorf("VM id %d, want %d (VM ids must be dense 0..n-1 in order)", vm.ID, id)
	}
	if vm.Kind != IaaS && vm.Kind != SaaS {
		return fmt.Errorf("invalid VM kind %d", int(vm.Kind))
	}
	if id > 0 && vm.Arrival < w.VMs[id-1].Arrival {
		return fmt.Errorf("VM arrival %v before the previous VM's %v (VMs must be sorted by arrival)", vm.Arrival, w.VMs[id-1].Arrival)
	}
	if vm.Arrival < 0 {
		return fmt.Errorf("negative VM arrival %v", vm.Arrival)
	}
	if vm.Lifetime <= 0 {
		return fmt.Errorf("non-positive VM lifetime %v", vm.Lifetime)
	}
	if vm.Kind == SaaS && (vm.Endpoint < 0 || vm.Endpoint >= len(w.Endpoints)) {
		return fmt.Errorf("SaaS VM references undeclared endpoint %d", vm.Endpoint)
	}
	if vm.Kind == IaaS && vm.Endpoint != -1 {
		return fmt.Errorf("IaaS VM has endpoint %d, want -1", vm.Endpoint)
	}
	return nil
}

// Generate builds the full VM arrival trace and endpoint set.
func Generate(cfg WorkloadConfig) (*Workload, error) {
	if err := validateConfig(&cfg); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if cfg.Occupancy == 0 {
		cfg.Occupancy = 0.92
	}
	if cfg.DemandScale == 0 {
		cfg.DemandScale = 0.8
	}
	if cfg.Endpoints <= 0 {
		cfg.Endpoints = 10
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3c0ffee))
	w := &Workload{Config: cfg}

	target := int(float64(cfg.Servers) * cfg.Occupancy)
	saasCount := int(float64(target) * cfg.SaaSFraction)
	iaasCount := target - saasCount

	// SaaS endpoints: VM counts spanning 23–100 (paper §5.1), scaled down
	// proportionally if the cluster is small.
	sizes := endpointSizes(cfg.Endpoints, saasCount)
	for i, n := range sizes {
		w.Endpoints = append(w.Endpoints, EndpointSpec{
			ID:     i,
			NumVMs: n,
			Work:   llm.DefaultWorkload(),
			Rate: LoadPattern{
				Base:       0.25,
				DiurnalAmp: 0.65,
				PhaseHours: float64(rng.IntN(6)) - 3,
				WeekendDip: 0.25,
				NoiseAmp:   0.05,
				Seed:       cfg.Seed ^ uint64(i)*0x9e37,
			},
			PeakRPSPerVM:  cfg.DemandScale * 3.2, // ≈ saturating one instance at peak when 1.0
			CustomerCount: 2000 + rng.IntN(8000),
			Seed:          cfg.Seed ^ (uint64(i+1) << 20),
		})
	}

	// VM population: initial residents plus arrivals over the window so that
	// occupancy stays near target as lifetimes expire.
	id := 0
	addVM := func(kind VMKind, arrival time.Duration, endpoint int) {
		spec := VMSpec{
			ID:       id,
			Kind:     kind,
			Arrival:  arrival,
			Lifetime: sampleLifetime(rng),
			Endpoint: -1,
		}
		if kind == IaaS {
			spec.Customer = rng.IntN(40) // 40 distinct IaaS customers
			spec.Load = iaasLoad(rng, cfg.Seed, spec.Customer, id)
		} else {
			spec.Endpoint = endpoint
			spec.Customer = -1
		}
		w.VMs = append(w.VMs, spec)
		id++
	}
	for i := 0; i < iaasCount; i++ {
		addVM(IaaS, 0, -1)
	}
	for ep, n := range sizes {
		for i := 0; i < n; i++ {
			addVM(SaaS, 0, ep)
		}
	}
	// Ongoing arrivals replace departures: expected departures per day ≈
	// population / mean lifetime.
	meanLifetimeDays := 25.0
	arrivalsPerDay := float64(target) / meanLifetimeDays
	days := cfg.Duration.Hours() / 24
	extra := int(arrivalsPerDay * days)
	for i := 0; i < extra; i++ {
		at := time.Duration(rng.Float64() * float64(cfg.Duration))
		if rng.Float64() < cfg.SaaSFraction {
			addVM(SaaS, at, rng.IntN(len(sizes)))
		} else {
			addVM(IaaS, at, -1)
		}
	}
	sort.Slice(w.VMs, func(i, j int) bool { return w.VMs[i].Arrival < w.VMs[j].Arrival })
	for i := range w.VMs {
		w.VMs[i].ID = i
	}
	return w, nil
}

// endpointSizes splits saasCount VMs across n endpoints with the skew of
// Fig. 12b: a few large endpoints hold most VMs.
func endpointSizes(n, saasCount int) []int {
	if n <= 0 || saasCount <= 0 {
		return nil
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -0.8) // heavy head
	}
	return splitVMs(saasCount, weights)
}

// splitVMs splits total VMs across endpoints in proportion to weights, at
// least one VM each, with the heaviest endpoint (the first among equals)
// absorbing the rounding remainder. The synthetic generator and the Azure
// import both size their endpoints with it.
func splitVMs(total int, weights []float64) []int {
	sum, heaviest := 0.0, 0
	for i, w := range weights {
		sum += w
		if w > weights[heaviest] {
			heaviest = i
		}
	}
	sizes := make([]int, len(weights))
	assigned := 0
	for i, w := range weights {
		sizes[i] = max(int(float64(total)*w/sum), 1)
		assigned += sizes[i]
	}
	sizes[heaviest] = max(sizes[heaviest]+total-assigned, 1)
	return sizes
}

// sampleLifetime draws a VM lifetime matching Fig. 12a: most VMs are
// long-lived (> 60% beyond two weeks).
func sampleLifetime(rng *rand.Rand) time.Duration {
	if rng.Float64() < 0.38 {
		// Short-lived: exponential, mean 4 days.
		d := rng.ExpFloat64() * 4
		if d < 0.04 {
			d = 0.04 // at least ~1 hour
		}
		return time.Duration(d * 24 * float64(time.Hour))
	}
	// Long-lived: uniform 2–13 weeks.
	d := 14 + rng.Float64()*77
	return time.Duration(d * 24 * float64(time.Hour))
}

// iaasLoad builds a diurnal load pattern for an IaaS VM; VMs of the same
// customer share phase and base shape (the predictability TAPAS exploits for
// customer-based power templates, Fig. 14b).
func iaasLoad(rng *rand.Rand, seed uint64, customer, vmID int) LoadPattern {
	// Business-hours peaks are mostly aligned across customers (Fig. 13);
	// phases spread only a few hours.
	custPhase := float64(customer%7) - 3
	return LoadPattern{
		Base:       0.20 + 0.35*HashUnit(seed, uint64(customer)*31),
		DiurnalAmp: 0.30 + 0.50*HashUnit(seed, uint64(customer)*37),
		PhaseHours: custPhase,
		WeekendDip: 0.2 * HashUnit(seed, uint64(customer)*41),
		NoiseAmp:   0.04 + 0.05*rng.Float64(),
		Seed:       seed ^ uint64(vmID)<<13,
	}
}
