package sim

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/thermal"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/units"
)

// TestKernelMatchesOracle steps two runners of the same compiled scenario
// and policy in lockstep: one through the tick kernel, one through
// oracleKernel, the kernel as it stood before it read VM inputs from
// server-indexed tables. After every tick every array the kernel writes
// (server power, inlet, load, airflow, frequency cap, hottest GPU, per-GPU
// power fractions, row power and the runner's thermal caps) must match by
// math.Float64bits, and so must the customer-peak estimates; the Results
// must be deeply equal at the end. Both kernels read the compiled phase
// index, so each IaaS server's load is also checked against its VM's
// LoadPattern.At, the definition the phase index and noise memo shortcut.
func TestKernelMatchesOracle(t *testing.T) {
	policies := map[string]func() Policy{
		"tapas":           func() Policy { return core.NewFull() },
		"baseline":        func() Policy { return core.NewBaseline() },
		"slo-edf":         func() Policy { return core.NewSLO(true) },
		"powergov-energy": func() Policy { return core.NewPowerGov(true) },
	}
	// The placement golden's mixed fleet: 5x aisles, half of them H100, one
	// hour from the diurnal peak.
	mixed := DefaultScenario()
	mixed.Layout.FleetScale = 5
	mixed.Layout.MixGPU, mixed.Layout.MixFraction = layout.H100, 0.5
	mixed.Duration = time.Hour
	mixed.StartOffset = 9 * time.Hour
	for _, c := range []struct {
		name string
		sc   Scenario
		pols []string
	}{
		{"hostile", hostileScenario(), []string{"tapas", "baseline"}},
		{"heatwave", heatwaveScenario(), []string{"tapas", "baseline"}},
		{"mixed-5x", mixed, []string{"tapas"}},
		{"churn-warped", churnScenario(t), []string{"tapas", "baseline"}},
		{"request-level", requestScenario(syntheticRequests(300, 2, 7*time.Minute)), []string{"tapas", "slo-edf", "powergov-energy"}},
	} {
		cs, err := Compile(c.sc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, name := range c.pols {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				got, err := cs.newRunner(policies[name]())
				if err != nil {
					t.Fatal(err)
				}
				want, err := cs.newRunner(policies[name]())
				if err != nil {
					t.Fatal(err)
				}
				oracle := newOracleKernel(want)
				for ti := 0; ti < got.res.Ticks; ti++ {
					got.fleetStep(got.beginTick(ti))
					got.st.RecordHistory(got.sc.Tick)
					oracle.fleetStep(want.beginTick(ti))
					want.st.RecordHistory(want.sc.Tick)
					if diff := kernelDiff(got, want); diff != "" {
						t.Fatalf("tick %d: %s", ti, diff)
					}
				}
				if !reflect.DeepEqual(got.res, want.res) {
					t.Error("Result diverged from the oracle's")
				}
			})
		}
	}
}

// churnScenario replays hostileScenario's workload re-timed for churn: VM i
// arrives at (i mod 8)×15 min and lives 10–30 min, so servers are freed and
// rebound to other VMs all run long, and every third IaaS VM's load pattern
// is time-warped (TimeScale 1.5), so warped and un-warped patterns follow
// each other on the same servers. It starts at midnight, so its first ticks
// fall in noise bucket 0, which a zero-valued noise memo would match.
func churnScenario(t *testing.T) Scenario {
	t.Helper()
	sc := hostileScenario()
	sc.StartOffset = 0
	w, err := GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	vms := append([]trace.VMSpec(nil), w.VMs...)
	for i := range vms {
		vms[i].Arrival = time.Duration(i%8) * 15 * time.Minute
		vms[i].Lifetime = 10*time.Minute + time.Duration(i%5)*5*time.Minute
		if vms[i].Kind == trace.IaaS && i%3 == 0 {
			vms[i].Load.TimeScale = 1.5
		}
	}
	sort.SliceStable(vms, func(i, j int) bool { return vms[i].Arrival < vms[j].Arrival })
	for i := range vms {
		vms[i].ID = i
	}
	replay := *w
	replay.VMs = vms
	sc.Trace = &replay
	return sc
}

// kernelDiff names the first kernel output where got differs from want by
// float bits, or returns "".
func kernelDiff(got, want *runner) string {
	g, w := got.st, want.st
	for _, a := range []struct {
		name      string
		got, want []float64
	}{
		{"ServerPowerW", g.ServerPowerW, w.ServerPowerW},
		{"ServerInletC", g.ServerInletC, w.ServerInletC},
		{"ServerLoadFrac", g.ServerLoadFrac, w.ServerLoadFrac},
		{"ServerAirflowCFM", g.ServerAirflowCFM, w.ServerAirflowCFM},
		{"ServerFreqCap", g.ServerFreqCap, w.ServerFreqCap},
		{"ServerHotGPUTempC", g.ServerHotGPUTempC, w.ServerHotGPUTempC},
		{"GPUPowerFrac", g.GPUPowerFrac, w.GPUPowerFrac},
		{"RowPowerW", g.RowPowerW, w.RowPowerW},
		{"thermalCap", got.thermalCap, want.thermalCap},
	} {
		for i := range a.want {
			if math.Float64bits(a.got[i]) != math.Float64bits(a.want[i]) {
				return fmt.Sprintf("%s[%d] = %v, oracle %v", a.name, i, a.got[i], a.want[i])
			}
		}
	}
	if len(g.CustomerPeakLoad) != len(w.CustomerPeakLoad) {
		return fmt.Sprintf("%d customer peaks, oracle %d", len(g.CustomerPeakLoad), len(w.CustomerPeakLoad))
	}
	for c, v := range w.CustomerPeakLoad {
		if gv, ok := g.CustomerPeakLoad[c]; !ok || math.Float64bits(gv) != math.Float64bits(v) {
			return fmt.Sprintf("customer %d peak = %v, oracle %v", c, gv, v)
		}
	}
	if g.PeakEpoch != w.PeakEpoch {
		return fmt.Sprintf("PeakEpoch = %d, oracle %d", g.PeakEpoch, w.PeakEpoch)
	}
	for id, vmID := range g.ServerVM {
		if vmID == -1 {
			continue
		}
		if vm := g.VMs[vmID]; vm.Spec.Kind == trace.IaaS {
			if at := vm.Spec.Load.At(g.Wall); math.Float64bits(g.ServerLoadFrac[id]) != math.Float64bits(at) {
				return fmt.Sprintf("server %d load = %v, VM %d's pattern gives %v", id, g.ServerLoadFrac[id], vmID, at)
			}
		}
	}
	return ""
}

// oracleKernel is the tick kernel before the per-server tables: fleetStep,
// serverStep and idleServer below are that kernel verbatim, except that
// they hang off this type (r := k.r) and keep the per-VM noise memo the
// runner no longer has. serverStep loads each server's VM through st.VMs.
type oracleKernel struct {
	r       *runner
	vmNoise []trace.NoiseCache
}

func newOracleKernel(r *runner) *oracleKernel {
	k := &oracleKernel{r: r, vmNoise: make([]trace.NoiseCache, len(r.st.VMs))}
	for i := range k.vmNoise {
		k.vmNoise[i].Bucket = ^uint64(0)
	}
	return k
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
func (k *oracleKernel) fleetStep(wall time.Duration) {
	r := k.r
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
		if t := k.serverStep(id, wall, inletBase); t > maxTemp {
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
// temperature.
func (k *oracleKernel) serverStep(id int, wall time.Duration, inletBase float64) float64 {
	r := k.r
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
		return k.idleServer(id, inletBase, aisle)
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
	switch {
	case vmID == -1:
	case st.VMs[vmID].Spec.Kind == trace.IaaS:
		vm := st.VMs[vmID]
		var util float64
		if pi := cs.vmPhase[vmID]; pi >= 0 {
			util = vm.Spec.Load.AtTick(&r.tickEval, r.phaseDaily[pi], &k.vmNoise[vmID])
		} else {
			util = vm.Spec.Load.At(wall)
		}
		actFrac = power.GPUPower(spec, util, cap) / spec.GPUTDPW
		loadFrac = util
		r.res.IaaSFreqCapSum += 1 - cap
		r.res.IaaSServerTicks++
		st.ObserveCustomerLoad(vm.Spec.Customer, util)
	default: // SaaS
		in := st.VMs[vmID].Instance
		if cap == 1 && in.StepDrained(r.sc.Tick) {
			// Drained and uncapped, the SaaS path collapses to idle
			// physics: BusyFrac is 0, so GPUPowerFrac returns exactly
			// the GPU idle fraction and every fraction, temperature and
			// power below reproduces the idle-server constants bit for
			// bit.
			return k.idleServer(id, inletBase, aisle)
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
	// Next tick's fan airflow is a pure function of this power draw;
	// computing it here retires the separate airflow fleet pass.
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

// idleServer is the kernel's path for an idle, uncapped server (and a
// drained, uncapped SaaS server): GPU fractions sit at the idle fraction,
// temperatures still track this tick's inlet (weather, datacenter load and
// recirculation move every tick), and power is the compiled idle constant.
// A violated aisle still counts the server-tick as thermally capped. Returns
// the hottest GPU temperature.
func (k *oracleKernel) idleServer(id int, inletBase float64, aisle int) float64 {
	r := k.r
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
