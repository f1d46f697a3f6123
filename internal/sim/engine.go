package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/thermal"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/units"
)

// dynPowerExp is the DVFS exponent of the power physics; aliasing the
// exported constant keeps the kernel's capped-power scaling and every
// capping inversion on one source of truth.
const dynPowerExp = power.DVFSExponent

// capRecovery is the per-tick multiplicative recovery of frequency caps once
// the pressure that caused them subsides.
const capRecovery = 1.05

// Run executes a scenario under a policy and returns the collected metrics.
// It compiles the scenario's run-invariant artifacts and runs once; callers
// evaluating several policies (or failure schedules) over the same scenario
// should Compile once and call CompiledScenario.Run per policy instead.
func Run(sc Scenario, pol Policy) (*Result, error) {
	if err := checkTicks(sc); err != nil {
		return nil, err
	}
	cs, err := Compile(sc)
	if err != nil {
		return nil, err
	}
	return cs.Run(pol)
}

// Initializer is an optional policy extension invoked once before the run,
// e.g. for offline profiling (§4.5).
type Initializer interface {
	Init(st *cluster.State) error
}

// runner executes one run. The tick kernel (airflowStep + fleetStep) is one
// serial pass over the fleet in ascending server ID: each server's physics is
// followed at once by its share of every cross-server reduction (row power,
// total power, capped-server counts, IaaS cap loss, customer peaks), so every
// floating-point sum accumulates in server-ID order.
type runner struct {
	sc      Scenario
	cs      *CompiledScenario
	pol     Policy
	st      *cluster.State
	outside *trace.OutsideTemp

	thermalCap    []float64 // hardware throttle factor per server
	aisleViolated []bool    // airflow demand exceeded supply this tick
	prevDCLoad    float64
	pending       []int // VM IDs awaiting placement
	nextVM        int
	res           *Result

	// Request-level replay state (Scenario.Requests): the monotone admission
	// cursor into the compiled request log, the optional per-request
	// router/admitter the policy implements, the queue discipline it selects,
	// and per-endpoint token scratch feeding the demand observations the
	// configurator sizes against.
	reqCursor   int
	reqRouter   RequestRouter
	reqAdmitter RequestAdmitter
	queueDisc   llm.Discipline
	epReqTokens []float64

	// Per-tick scratch for the fleet sweep: cap-recovery eligibility depends
	// only on the row/aisle, so it is evaluated once per row/aisle instead
	// of once per server.
	rowRecoverOK   []bool
	aisleRecoverOK []bool

	// phaseDaily[i] is this tick's diurnal sine for compiled phase i
	// (CompiledScenario.phaseBy): one sine per distinct customer phase per
	// tick instead of one per IaaS server.
	phaseDaily []float64
	// expiry is a binary min-heap of (departure time, VM ID) over placed
	// VMs, so the per-tick departure pass pops only the VMs actually due
	// instead of scanning every placed VM. Popped IDs are re-sorted
	// ascending before removal — the order the full scan removed them in —
	// and re-checked against live state, so stale entries are harmless.
	expiry    []vmExpiry
	expiryDue []int
	// tickEval shares this tick's weekend/noise-bucket terms across every
	// un-warped load-pattern evaluation.
	tickEval trace.TickEval
	// srvIaaS is each server's IaaS record, indexed by server ID, so an
	// IaaS server-tick reads its VM's load inputs without loading the VM.
	srvIaaS []iaasRecord
}

// iaasRecord is the tick kernel's copy of one server's IaaS VM inputs: the
// VM's load pattern, compiled phase index and customer, plus the noise memo
// that saves the pattern's two noise hashes across the ~10 ticks sharing a
// noise bucket. serverStep rebuilds it whenever the server's VM differs
// from the one it was built for (bindIaaS).
type iaasRecord struct {
	vm       int32 // VM the record was built for; -1 before the first
	phase    int32 // CompiledScenario.vmPhase of vm; -1 for time-warped patterns
	customer int
	load     trace.LoadPattern
	noise    trace.NoiseCache
}

// vmExpiry is one expiry-heap entry: the simulation time a placed VM's
// lifetime ends, and which VM.
type vmExpiry struct {
	at time.Duration
	vm int32
}

func (r *runner) pushExpiry(vmID int, at time.Duration) {
	r.expiry = append(r.expiry, vmExpiry{at: at, vm: int32(vmID)})
	i := len(r.expiry) - 1
	for i > 0 {
		p := (i - 1) / 2
		if r.expiry[p].at <= r.expiry[i].at {
			break
		}
		r.expiry[p], r.expiry[i] = r.expiry[i], r.expiry[p]
		i = p
	}
}

func (r *runner) popExpiry() {
	h := r.expiry
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	r.expiry = h
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if h[i].at <= h[c].at {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// outsideSeedXor decorrelates the weather series from the workload streams
// derived from the same seed.
const outsideSeedXor = 0xd00d

// newRunner builds a run of the compiled scenario under a policy: a private
// cluster.State around the shared read-only artifacts, seeded with the
// compiled history and initialized by the policy, the outside-temperature
// series of the run's own climate and window, plus the runner's per-server
// working state.
func (cs *CompiledScenario) newRunner(pol Policy) (*runner, error) {
	sc := cs.Scenario
	st := cluster.NewState(cs.DC, cs.Workload)
	st.Tick = sc.Tick
	st.SeedHistory(cs.customerPeak, cs.endpointPeak)
	if init, ok := pol.(Initializer); ok {
		if err := init.Init(st); err != nil {
			return nil, fmt.Errorf("sim: policy init: %w", err)
		}
	}
	outside := trace.NewOutsideTemp(sc.Region, sc.StartOffset+sc.Duration, 10*time.Minute, cs.Workload.Config.Seed^outsideSeedXor)
	r := &runner{sc: sc, cs: cs, pol: pol, st: st, outside: outside}
	ticks := int(r.sc.Duration / r.sc.Tick)
	r.res = &Result{Policy: r.pol.Name(), Tick: r.sc.Tick, Ticks: ticks}
	r.res.MaxTempC = make([]float64, 0, ticks)
	r.res.PeakRowPowerW = make([]float64, 0, ticks)
	r.res.TotalPowerW = make([]float64, 0, ticks)
	n := len(st.DC.Servers)
	r.thermalCap = make([]float64, n)
	r.srvIaaS = make([]iaasRecord, n)
	for i := range r.thermalCap {
		r.thermalCap[i] = 1
		r.srvIaaS[i].vm = -1
		// Seed the fan-control lag with each generation's idle draw and the
		// fan airflow of that draw: at idle power the heat fraction is 0,
		// so the airflow is the generation's idle airflow.
		m := cs.DC.ServerModel[i]
		st.ServerPowerW[i] = r.cs.idleWBy[m]
		st.ServerAirflowCFM[i] = r.cs.specBy[m].AirflowIdleCFM
	}
	r.aisleViolated = make([]bool, len(st.DC.Aisles))
	r.rowRecoverOK = make([]bool, len(st.DC.Rows))
	r.aisleRecoverOK = make([]bool, len(st.DC.Aisles))
	r.prevDCLoad = 0.3
	r.phaseDaily = make([]float64, len(r.cs.phaseBy))
	if len(r.cs.requests) > 0 {
		r.epReqTokens = make([]float64, len(st.Work.Endpoints))
		r.reqRouter, _ = r.pol.(RequestRouter)
		r.reqAdmitter, _ = r.pol.(RequestAdmitter)
		if rs, ok := r.pol.(RequestScheduler); ok {
			r.queueDisc = rs.QueueDiscipline()
		}
	}
	if tun, ok := r.pol.(SLOTunable); ok {
		tun.TuneSLO(r.sc.SLOSched.AffinityWeight, r.sc.SLOSched.AdmissionSlack)
	}
	if tun, ok := r.pol.(PowerGovTunable); ok {
		tun.TunePowerGov(r.sc.PowerGov.BudgetFrac, r.sc.PowerGov.Gain)
	}
	// Per-endpoint energy/token accounting is sized up front: every SaaS VM
	// spec references a workload endpoint, so the slices never grow mid-run.
	r.res.EndpointEnergyJ = make([]float64, len(st.Work.Endpoints))
	r.res.EndpointServedTokens = make([]float64, len(st.Work.Endpoints))
	return r, nil
}

func (r *runner) run() *Result {
	st := r.st
	for ti := 0; ti < r.res.Ticks; ti++ {
		r.fleetStep(r.beginTick(ti))
		st.RecordHistory(r.sc.Tick)
		if r.sc.Observer != nil {
			r.sc.Observer(st)
		}
	}
	// Harvest instances still running at the end.
	for _, vm := range st.VMs {
		if vm.Instance != nil {
			r.harvest(vm)
		}
	}
	return r.res
}

// beginTick advances the clocks to tick ti and runs every phase before the
// tick kernel: failures, churn and placement, routing, configuration and
// airflow. It returns the wall time the kernel evaluates load patterns at.
func (r *runner) beginTick(ti int) time.Duration {
	st := r.st
	now := time.Duration(ti+1) * r.sc.Tick
	wall := r.sc.StartOffset + now
	st.Now = now
	st.Wall = wall
	st.OutsideC = r.outside.At(wall)
	st.DCLoadFrac = r.prevDCLoad

	r.applyFailures(now)
	r.churnVMs(now)
	if len(r.cs.requests) > 0 {
		r.routeRequests(now)
	} else {
		r.routeDemand(wall)
	}
	r.pol.Configure(st)
	r.airflowStep()
	return wall
}

// applyFailures sets the emergency multipliers for the current time.
func (r *runner) applyFailures(now time.Duration) {
	airflow, powerMult := 1.0, 1.0
	for _, f := range r.sc.Failures {
		if now >= f.At && now < f.At+f.Duration {
			switch f.Kind {
			case CoolingFailure:
				airflow = 0.90
			case PowerFailure:
				powerMult = 0.75
			}
		}
	}
	r.st.AirflowLimitFrac = airflow
	r.st.Budget.SetEmergency(powerMult)
}

// churnVMs processes departures and (re)tries placements.
func (r *runner) churnVMs(now time.Duration) {
	st := r.st
	// Departures: pop the due expiry-heap entries instead of scanning every
	// placed VM. A placed VM is inactive exactly when now has reached its
	// recorded departure time, and removing the due set in ascending VM-ID
	// order reproduces the full scan's removal (and harvest accumulation)
	// order bit for bit.
	due := r.expiryDue[:0]
	for len(r.expiry) > 0 && r.expiry[0].at <= now {
		due = append(due, int(r.expiry[0].vm))
		r.popExpiry()
	}
	sort.Ints(due)
	for _, vmID := range due {
		vm := st.VMs[vmID]
		if vm.Server >= 0 && !vm.Spec.Active(now) {
			if vm.Instance != nil {
				r.harvest(vm)
			}
			st.Remove(vm.Spec.ID)
		}
	}
	r.expiryDue = due
	for r.nextVM < len(st.VMs) && st.VMs[r.nextVM].Spec.Arrival <= now {
		// A VM placed before its cursor admission (an initializer seed)
		// enters the departure set here, exactly when the old scan's
		// [:nextVM] window would first have covered it.
		if vm := st.VMs[r.nextVM]; vm.Server >= 0 {
			r.pushExpiry(r.nextVM, vm.Spec.Arrival+vm.Spec.Lifetime)
		}
		r.pending = append(r.pending, r.nextVM)
		r.nextVM++
	}
	keep := r.pending[:0]
	for _, vmID := range r.pending {
		vm := st.VMs[vmID]
		if !vm.Spec.Active(now) {
			continue // expired before it could be placed
		}
		if srv, ok := r.pol.Place(st, vm); ok {
			if err := st.Place(vmID, srv); err == nil {
				r.pushExpiry(vmID, vm.Spec.Arrival+vm.Spec.Lifetime)
				continue
			}
		}
		r.res.PlacementRejects++
		keep = append(keep, vmID)
	}
	r.pending = keep
}

// routeDemand distributes each endpoint's token demand via the policy.
func (r *runner) routeDemand(wall time.Duration) {
	st := r.st
	for _, ep := range st.Work.Endpoints {
		prompt, output := ep.DemandTokens(wall, r.sc.Tick)
		if prompt+output <= 0 {
			continue
		}
		insts := st.EndpointInstances(ep.ID)
		if len(insts) == 0 {
			continue
		}
		st.ObserveEndpointDemand(ep.ID, (prompt+output)/r.sc.Tick.Seconds()/float64(len(insts)))
		r.res.SaaSDemandTokens += prompt + output
		r.pol.Route(st, ep, prompt, output)
	}
}

// routeRequests is routeDemand in request-level replay mode: it admits every
// request that arrived by the start of this tick (the log is
// arrival-sorted, so a monotone cursor suffices) into one instance's
// continuous-batching queue. Admission at tick start keeps queueing delay
// and TTFT non-negative: the per-instance queue clocks sit exactly at tick
// start when routing runs. The policy picks the instance when it implements
// RequestRouter; otherwise (and whenever it declines) the engine routes to
// the least-loaded non-reloading instance, ties to the lowest VM ID.
// Requests targeting an endpoint with no placed instances are dropped, as
// binned demand for an instance-less endpoint is. Admitted tokens still feed
// st.ObserveEndpointDemand, so the configurator sees the same per-VM demand
// signal as in binned mode.
func (r *runner) routeRequests(now time.Duration) {
	st := r.st
	reqs := r.cs.requests
	tickStart := now - r.sc.Tick
	// Instances placed since the last tick enter replay mode here, with
	// their queue clock at tick start — before their first Step.
	for ep := range st.Work.Endpoints {
		for _, vm := range st.EndpointInstances(ep) {
			if in := vm.Instance; in.Queue() == nil {
				in.AttachQueue(tickStart)
				in.Queue().SetDiscipline(r.queueDisc)
			}
		}
	}
	for i := range r.epReqTokens {
		r.epReqTokens[i] = 0
	}
	for r.reqCursor < len(reqs) && reqs[r.reqCursor].Arrival <= tickStart {
		req := reqs[r.reqCursor]
		r.reqCursor++
		insts := st.EndpointInstances(req.Endpoint)
		if len(insts) == 0 {
			continue
		}
		// Shed requests still count toward the observed demand signal: the
		// load arrived whether or not the policy accepted it, and the
		// configurator should size against true pressure.
		r.epReqTokens[req.Endpoint] += float64(req.TotalTokens())
		idx, ok := -1, false
		if r.reqAdmitter != nil {
			// An admission-controlling policy replaces RouteRequest wholesale:
			// it both picks the instance and may shed the request outright.
			var admit bool
			idx, admit = r.reqAdmitter.AdmitRequest(st, insts, req)
			if !admit {
				r.res.AddShed(req.Endpoint)
				continue
			}
			ok = true
		} else if r.reqRouter != nil {
			idx, ok = r.reqRouter.RouteRequest(st, insts, req)
		}
		if !ok || idx < 0 || idx >= len(insts) {
			idx = defaultRequestTarget(insts)
		}
		insts[idx].Instance.EnqueueRequest(req)
		r.res.AddAdmitted(req.Endpoint)
	}
	tickSecs := r.sc.Tick.Seconds()
	for ep, tokens := range r.epReqTokens {
		if tokens <= 0 {
			continue
		}
		insts := st.EndpointInstances(ep)
		st.ObserveEndpointDemand(ep, tokens/tickSecs/float64(len(insts)))
		r.res.SaaSDemandTokens += tokens
	}
}

// defaultRequestTarget picks the instance with the least queued seconds of
// work, skipping reloading instances when any alternative exists; insts is
// in ascending VM-ID order, so strict improvement ties to the lowest VM ID.
func defaultRequestTarget(insts []*cluster.VM) int {
	best, bestLoad := -1, math.Inf(1)
	for i, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		if d := in.DemandSeconds(); d < bestLoad {
			best, bestLoad = i, d
		}
	}
	if best < 0 {
		return 0 // every instance is reloading; the oldest absorbs the wait
	}
	return best
}

// airflowStep aggregates aisle demand in server-ID order from the fan
// airflow of the previous tick's power (fans chase heat, so fan control lags
// load by one tick; the kernel stores each server's airflow next to its
// power, and newRunner seeds both for tick 1), and invokes the policy when
// an aisle out-draws its AHUs.
func (r *runner) airflowStep() {
	st := r.st
	for a := range st.AisleDemandCFM {
		st.AisleDemandCFM[a] = 0
	}
	srvAisle := r.cs.DC.ServerAisle
	for id, af := range st.ServerAirflowCFM {
		st.AisleDemandCFM[srvAisle[id]] += af
	}
	for a := range st.AisleDemandCFM {
		limit := st.AisleLimitCFM(a)
		r.aisleViolated[a] = st.AisleDemandCFM[a] > limit
		if r.aisleViolated[a] {
			r.pol.CapAisle(st, a, st.AisleDemandCFM[a], limit)
		}
		st.AisleRecircC[a] = thermal.RecirculationPenalty(st.AisleDemandCFM[a], limit)
	}
}

// fleetStep is the tick kernel: one pass over the fleet in ascending server
// ID advances SaaS instances, computes per-GPU power fractions, applies
// hardware thermal throttling against the compiled coefficient tables, and
// adds each server's power to its row and the fleet total right after its
// physics. Nothing in the pass reads row power, the total or the customer
// peaks, so every sum accumulates in server-ID order. A trailing per-row loop
// applies the policy's capping response and records the tick.
//
// A server-tick is thermally capped when its GPUs throttle or its aisle's
// airflow is violated; power-capped when its row exceeds its effective limit.
func (r *runner) fleetStep(wall time.Duration) {
	st := r.st
	cs := r.cs
	// Caps recover gradually, and only while the constraints that
	// motivated them sit comfortably below their limits — otherwise
	// recovery and re-capping oscillate across the limit every tick.
	// Row eligibility reads the previous tick's power, so it must be
	// evaluated before the accumulators reset.
	for row := range r.rowRecoverOK {
		r.rowRecoverOK[row] = st.RowPowerW[row] < st.Budget.RowLimitW(row)*0.93
	}
	for a := range r.aisleRecoverOK {
		r.aisleRecoverOK[a] = st.AisleDemandCFM[a] < st.AisleLimitCFM(a)*0.93
	}
	for row := range st.RowPowerW {
		st.RowPowerW[row] = 0
	}
	// The cooling-curve base is uniform across the fleet this tick; only the
	// per-server spatial offset and aisle recirculation vary.
	inletBase := thermal.CoolingCurve(st.OutsideC, st.DCLoadFrac)
	r.tickEval = trace.NewTickEval(wall)
	for i, ph := range cs.phaseBy {
		r.phaseDaily[i] = trace.DailySin(wall, ph)
	}

	srvRow := cs.DC.ServerRow
	maxTemp, total := 0.0, 0.0
	for id := range st.ServerPowerW {
		if t := r.serverStep(id, wall, inletBase); t > maxTemp {
			maxTemp = t
		}
		p := st.ServerPowerW[id]
		st.RowPowerW[srvRow[id]] += p
		total += p
		if st.ServerFreqCap[id] < 1 {
			r.res.FreqCapSrvTicks++
		}
	}
	// Per-endpoint energy: integrate the full power of every server hosting
	// an endpoint's instances over the tick, in (endpoint, ascending VM-ID)
	// order.
	tickSecs := r.sc.Tick.Seconds()
	for ep := range r.res.EndpointEnergyJ {
		sum := 0.0
		for _, vm := range st.EndpointInstances(ep) {
			sum += st.ServerPowerW[vm.Server]
		}
		r.res.EndpointEnergyJ[ep] += sum * tickSecs
	}

	r.res.ServerTicks += len(st.ServerPowerW)
	r.res.MaxTempC = append(r.res.MaxTempC, maxTemp)
	peak := 0.0
	for row, draw := range st.RowPowerW {
		limit := st.Budget.RowLimitW(row)
		if draw > limit {
			r.pol.CapRow(st, row, draw, limit)
			r.res.PowerCapSrvTicks += len(st.DC.Rows[row].Servers)
		}
		if draw > peak {
			peak = draw
		}
	}
	r.res.PeakRowPowerW = append(r.res.PeakRowPowerW, peak)
	r.res.TotalPowerW = append(r.res.TotalPowerW, total)
	r.prevDCLoad = total / cs.fleetTDPW
}

// serverStep advances one server by a tick: cap recovery, its VM's load,
// GPU power with hardware throttling, inlet and GPU temperatures, server
// power and next tick's fan airflow. An IaaS server also adds its cap loss
// and observes its customer's load. It returns the server's hottest GPU
// temperature. A server's VM inputs come from server-indexed tables, not
// from its heap VM: st.ServerInst holds a SaaS server's instance and
// r.srvIaaS an IaaS server's load inputs.
func (r *runner) serverStep(id int, wall time.Duration, inletBase float64) float64 {
	st := r.st
	cs := r.cs
	co := cs.Coeffs
	dc := cs.DC
	aisle := int(dc.ServerAisle[id])
	vmID := st.ServerVM[id]
	if vmID == -1 && st.ServerFreqCap[id] == 1 && r.thermalCap[id] == 1 {
		// Idle and uncapped: cap recovery is a no-op, the GPUs sit at the
		// idle fraction, and the throttle condition (frac > idle) can never
		// fire, so the compiled idle constants reproduce the full path bit
		// for bit.
		return r.idleServer(id, inletBase, aisle)
	}
	m := dc.ServerModel[id]
	spec := &cs.specBy[m]
	idleFrac := cs.idleFracBy[m]
	throttleC := spec.ThrottleTempC
	gpus := st.GPUsPerServer

	if r.rowRecoverOK[dc.ServerRow[id]] && r.aisleRecoverOK[aisle] {
		// Branch instead of math.Min: caps are positive finite, so the
		// semantics match and the non-inlined call is avoided.
		if c := st.ServerFreqCap[id] * capRecovery; c < 1 {
			st.ServerFreqCap[id] = c
		} else {
			st.ServerFreqCap[id] = 1
		}
	}
	base := id * gpus
	// ServerHotGPUTempC still holds last tick's hottest GPU, so the
	// cool check is one read instead of a scan over the GPU block.
	if st.ServerHotGPUTempC[id] <= throttleC-5 {
		if c := r.thermalCap[id] * capRecovery; c < 1 {
			r.thermalCap[id] = c
		} else {
			r.thermalCap[id] = 1
		}
	}
	cap := st.ServerFreqCap[id] * r.thermalCap[id]

	// Every GPU of a server runs at one of two power fractions: actFrac
	// on the first nAct GPUs (the VM's active set) and the idle fraction
	// on the rest. The workload switch derives the pair; the single
	// per-GPU loop below then fuses fraction fill, thermal evaluation
	// with hardware throttling, and the power sum into one pass over the
	// flat coefficient tables.
	actFrac := idleFrac
	nAct := gpus
	loadFrac := 0.0
	switch in := st.ServerInst[id]; {
	case vmID == -1:
	case in == nil: // IaaS
		rec := &r.srvIaaS[id]
		if rec.vm != int32(vmID) {
			r.bindIaaS(rec, vmID)
		}
		var util float64
		if rec.phase >= 0 {
			util = rec.load.AtTick(&r.tickEval, r.phaseDaily[rec.phase], &rec.noise)
		} else {
			util = rec.load.At(wall)
		}
		actFrac = power.GPUPower(spec, util, cap) / spec.GPUTDPW
		loadFrac = util
		r.res.IaaSFreqCapSum += 1 - cap
		r.res.IaaSServerTicks++
		st.ObserveCustomerLoad(rec.customer, util)
	default: // SaaS
		if cap == 1 && in.StepDrained(r.sc.Tick) {
			// Drained and uncapped, the SaaS path collapses to idle
			// physics: BusyFrac is 0, so GPUPowerFrac returns exactly
			// the GPU idle fraction and every fraction, temperature and
			// power below reproduces the idle-server constants bit for
			// bit.
			return r.idleServer(id, inletBase, aisle)
		}
		in.SpeedFactor = cap
		in.Step(r.sc.Tick)
		gpuBase := in.GPUPowerFrac()
		// Frequency capping shrinks the dynamic share of GPU power.
		// math.Pow(1, x) is exactly 1, so uncapped servers (the common
		// case) skip the call without changing the result.
		powCap := 1.0
		if cap != 1 {
			powCap = math.Pow(cap, dynPowerExp)
		}
		actFrac = idleFrac + (gpuBase-idleFrac)*powCap
		nAct = in.ActiveGPUs()
		loadFrac = in.BusyFrac * float64(in.ActiveGPUs()) / float64(spec.GPUsPerServer)
	}
	st.ServerLoadFrac[id] = loadFrac

	// Thermals and power: inlet, GPU temperatures with hardware
	// throttling, and the server power sum in one pass. Clamp01 is
	// hoisted per distinct fraction; the per-GPU temperature stays a
	// multiply-add over the flat bias/gain tables.
	inlet := inletBase + co.InletOffsetC[id] + st.AisleRecircC[aisle]
	st.ServerInletC[id] = inlet
	fracs := st.GPUPowerFrac[base : base+gpus]
	bias := co.BiasC[base : base+gpus]
	gain := co.GainC[base : base+gpus]
	cfAct := units.Clamp01(actFrac)
	throttled := false
	srvMax := 0.0
	sum := 0.0
	w := spec.GPUTDPW
	if nAct > gpus {
		nAct = gpus
	}
	if actFrac <= idleFrac || inlet+cs.srvMaxBias[id]+cs.srvMaxGain[id]*cfAct <= throttleC {
		// The precomputed coefficient maxima upper-bound every GPU
		// temperature (rounding is monotone), so the throttle condition
		// cannot fire anywhere in the block and the loop runs without
		// the per-GPU check. f*w is the same multiply every iteration,
		// so hoisting it is bit-identical.
		actW := actFrac * w
		for g := 0; g < nAct; g++ {
			temp := inlet + bias[g] + gain[g]*cfAct
			fracs[g] = actFrac
			if temp > srvMax {
				srvMax = temp
			}
			sum += actW
		}
	} else {
		for g := 0; g < nAct; g++ {
			f := actFrac
			temp := inlet + bias[g] + gain[g]*cfAct
			if temp > throttleC && f > idleFrac {
				throttled = true
				allowed := co.MaxPowerFrac(base+g, inlet, throttleC)
				if allowed < idleFrac {
					allowed = idleFrac // hardware cannot go below idle draw
				}
				if allowed < f {
					f = allowed
					temp = inlet + bias[g] + gain[g]*units.Clamp01(f)
				}
			}
			fracs[g] = f
			if temp > srvMax {
				srvMax = temp
			}
			sum += f * w
		}
	}
	if nAct < gpus {
		// Inactive GPUs sit at the idle fraction, which can never
		// satisfy the throttle condition (f > idleFrac), so this run is
		// branch-free.
		cfIdle := units.Clamp01(idleFrac)
		idleTerm := idleFrac * w
		for g := nAct; g < gpus; g++ {
			temp := inlet + bias[g] + gain[g]*cfIdle
			fracs[g] = idleFrac
			if temp > srvMax {
				srvMax = temp
			}
			sum += idleTerm
		}
	}
	st.ServerHotGPUTempC[id] = srvMax
	if throttled {
		// The hardware clock-down slows next tick's work.
		r.thermalCap[id] = math.Max(0.3, r.thermalCap[id]*0.85)
	}
	if throttled || r.aisleViolated[aisle] {
		r.res.ThermalThrottleSrvTicks++
	}
	// power.ServerPower and thermal.FanFrac, unrolled to share one
	// Clamp01 of the load fraction (Clamp01 is pure, so reusing the
	// value is bit-identical); the addition order matches ServerPower.
	clf := units.Clamp01(loadFrac)
	p := units.Lerp(spec.ServerOtherW, spec.ServerOtherMaxW, clf) + sum + power.FanPower(spec, 0.3+0.7*clf)
	st.ServerPowerW[id] = p
	// Next tick's fan airflow is a pure function of this power draw.
	if p == cs.idleTickWBy[m] {
		st.ServerAirflowCFM[id] = cs.idleAirflowBy[m]
	} else {
		idleP := cs.idleWBy[m]
		// heatFrac is already clamped, so Lerp directly (thermal.Airflow
		// would only re-clamp — Clamp01 is idempotent).
		heatFrac := units.Clamp01((p - idleP) / (spec.ServerTDPW - idleP))
		st.ServerAirflowCFM[id] = units.Lerp(spec.AirflowIdleCFM, spec.AirflowMaxCFM, heatFrac)
	}
	return srvMax
}

// bindIaaS rebuilds a server's IaaS record for the VM now on it. An IaaS
// VM's load inputs never change, so the copy stays exact for as long as the
// VM stays; the noise memo restarts empty, and since it caches a pure
// function of the pattern's seed and the noise bucket, a fresh memo only
// re-derives the same hashes.
func (r *runner) bindIaaS(rec *iaasRecord, vmID int) {
	spec := &r.st.VMs[vmID].Spec
	*rec = iaasRecord{
		vm:       int32(vmID),
		phase:    r.cs.vmPhase[vmID],
		customer: spec.Customer,
		load:     spec.Load,
		noise:    trace.NoiseCache{Bucket: ^uint64(0)},
	}
}

// idleServer is the kernel's path for an idle, uncapped server (and a
// drained, uncapped SaaS server): GPU fractions sit at the idle fraction,
// temperatures still track this tick's inlet (weather, datacenter load and
// recirculation move every tick), and power is the compiled idle constant.
// A violated aisle still counts the server-tick as thermally capped. Returns
// the hottest GPU temperature.
func (r *runner) idleServer(id int, inletBase float64, aisle int) float64 {
	st := r.st
	cs := r.cs
	co := cs.Coeffs
	gpus := st.GPUsPerServer
	m := cs.DC.ServerModel[id]
	idleFrac := cs.idleFracBy[m]
	base := id * gpus
	fracs := st.GPUPowerFrac[base : base+gpus]
	bias := co.BiasC[base : base+gpus]
	gain := co.GainC[base : base+gpus]
	inlet := inletBase + co.InletOffsetC[id] + st.AisleRecircC[aisle]
	st.ServerInletC[id] = inlet
	st.ServerLoadFrac[id] = 0
	cf := units.Clamp01(idleFrac)
	maxT := 0.0
	for g := range fracs {
		fracs[g] = idleFrac
		if temp := inlet + bias[g] + gain[g]*cf; temp > maxT {
			maxT = temp
		}
	}
	st.ServerHotGPUTempC[id] = maxT
	st.ServerPowerW[id] = cs.idleTickWBy[m]
	st.ServerAirflowCFM[id] = cs.idleAirflowBy[m]
	if r.aisleViolated[aisle] {
		r.res.ThermalThrottleSrvTicks++
	}
	return maxT
}

// harvest folds a departing instance's cumulative service counters into the
// result, and in request-level replay mode drains its per-request latency
// records. Harvest order is deterministic (ascending VM ID, at departure and
// end of run), so the per-endpoint SLO sample order is too.
func (r *runner) harvest(vm *cluster.VM) {
	in := vm.Instance
	r.res.SaaSServedTokens += in.ServedTokens
	if ep := vm.Spec.Endpoint; ep >= 0 && ep < len(r.res.EndpointServedTokens) {
		r.res.EndpointServedTokens[ep] += in.ServedTokens
	}
	r.res.SaaSCompletedReqs += in.CompletedRequests
	r.res.SaaSViolatedReqs += in.SLOViolatedReqs
	r.res.SaaSQualityWeight += in.QualityWeight
	for _, c := range in.DrainCompletions() {
		r.res.AddCompletion(c)
	}
}
