package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/trace"
)

// The functions below are the request decisions and the configurator scan
// as they stood before the policy families shared scoreRequest,
// serverHeadroom and one pick scan: three copies of the request loop, four
// of the headroom signal and two of the scan. They are the oracle the merged
// code must match decision for decision.

// oracleHeadroom is the headroom signal each pre-merge loop computed inline
// (and binned routing too), with the same operands in the same order.
func oracleHeadroom(st *cluster.State, id int, throttleC float64) float64 {
	srv := st.DC.Servers[id]
	rowLimitW := st.Budget.RowLimitW(srv.Row)
	rowUse := st.RowPowerW[srv.Row] / (rowLimitW + 1)
	aisleUse := st.AisleDemandCFM[srv.Aisle] / (st.AisleLimitCFM(srv.Aisle) + 1)
	tempUse := st.ServerHotGPUTempC[id] / (throttleC - 2)
	head := 1.0
	for _, use := range [3]float64{rowUse, aisleUse, tempUse} {
		if use >= riskGate {
			return 0
		}
		if h := (riskGate - use) / riskGate; h < head {
			head = h
		}
	}
	return head
}

// oracleEnergyPerToken is energyPerTokenEst before the instance cached its
// full-load server power: the power is derived from the spec per call.
func oracleEnergyPerToken(vm *cluster.VM) float64 {
	in := vm.Instance
	rate := in.DecodeRate()
	if rate <= 0 {
		return math.Inf(1)
	}
	return power.ServerPowerAtUniformLoad(&in.Spec, 1) / rate
}

func oracleTAPASRoute(t *TAPAS, st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	if !t.opts.Route {
		return 0, false
	}
	throttleC := st.Spec.ThrottleTempC
	best, bestScore := -1, math.Inf(1)
	for i, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		score := in.DemandSeconds()
		if in.HasAffinity(req.Customer) {
			score *= affinityDiscount
		}
		if oracleHeadroom(st, vm.Server, throttleC) <= 0 {
			score += unsafePenaltySecs
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func oracleSLOAdmit(s *SLO, st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	throttleC := st.Spec.ThrottleTempC
	waited := (st.Now - st.Tick - req.Arrival).Seconds()
	if waited < 0 {
		waited = 0
	}
	best, bestScore := -1, math.Inf(1)
	for i, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		pr := in.PrefillRate()
		if pr <= 0 {
			continue
		}
		backlog := in.DemandSeconds()
		projTTFT := waited + backlog + float64(req.PromptTokens)/pr
		if projTTFT > s.admissionSlack*in.SLOs.TTFT.Seconds() {
			continue
		}
		score := backlog
		if in.HasAffinity(req.Customer) {
			score *= s.affinityWeight
		}
		if oracleHeadroom(st, vm.Server, throttleC) <= 0 {
			score += unsafePenaltySecs
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func oraclePowerGovRoute(g *PowerGov, st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	if !g.energyAware {
		return oracleTAPASRoute(g.TAPAS, st, insts, req)
	}
	minJ := math.Inf(1)
	for _, vm := range insts {
		if j := oracleEnergyPerToken(vm); j < minJ {
			minJ = j
		}
	}
	waited := (st.Now - st.Tick - req.Arrival).Seconds()
	if waited < 0 {
		waited = 0
	}
	throttleC := st.Spec.ThrottleTempC
	best, bestScore := -1, math.Inf(1)
	for i, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		pr := in.PrefillRate()
		if pr <= 0 {
			continue
		}
		backlog := in.DemandSeconds()
		if waited+backlog+float64(req.PromptTokens)/pr > in.SLOs.TTFT.Seconds() {
			continue
		}
		score := (backlog + 1) * oracleEnergyPerToken(vm) / minJ
		if in.HasAffinity(req.Customer) {
			score *= affinityDiscount
		}
		if oracleHeadroom(st, vm.Server, throttleC) <= 0 {
			score += unsafePenaltySecs
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return oracleTAPASRoute(g.TAPAS, st, insts, req)
	}
	return best, true
}

func oraclePick(p *llm.Profile, cur llm.Config, maxFrac, maxServerW, qualityFloor, required float64, reloadOK bool) (llm.ProfileEntry, bool) {
	feasible := func(e *llm.ProfileEntry) bool {
		return e.Goodput > 0 && e.Quality >= qualityFloor &&
			e.PeakGPUPowerFrac <= maxFrac && e.PeakServerPowerW <= maxServerW &&
			(reloadOK || llm.ReconfigTime(cur, e.Config) == 0)
	}
	idx := p.FullQuality
	if qualityFloor < 1 {
		idx = nil
	}
	var best *llm.ProfileEntry
	if idx != nil {
		for _, i := range idx {
			e := &p.Entries[i]
			if e.Goodput < required {
				break
			}
			if !feasible(e) {
				continue
			}
			if best == nil || e.Quality > best.Quality ||
				(e.Quality == best.Quality && (e.AvgServerPowerW < best.AvgServerPowerW ||
					(e.AvgServerPowerW == best.AvgServerPowerW && llm.ReconfigTime(cur, e.Config) < llm.ReconfigTime(cur, best.Config)))) {
				best = e
			}
		}
		if best != nil {
			return *best, true
		}
		for _, i := range idx {
			if e := &p.Entries[i]; feasible(e) {
				return *e, true
			}
		}
		return llm.ProfileEntry{}, false
	}
	for i := range p.Entries {
		e := &p.Entries[i]
		if e.Goodput < required {
			break
		}
		if !feasible(e) {
			continue
		}
		if best == nil || e.Quality > best.Quality ||
			(e.Quality == best.Quality && (e.AvgServerPowerW < best.AvgServerPowerW ||
				(e.AvgServerPowerW == best.AvgServerPowerW && llm.ReconfigTime(cur, e.Config) < llm.ReconfigTime(cur, best.Config)))) {
			best = e
		}
	}
	if best != nil {
		return *best, true
	}
	for i := range p.Entries {
		if e := &p.Entries[i]; feasible(e) {
			return *e, true
		}
	}
	return llm.ProfileEntry{}, false
}

// oracleFleet is one random fleet: a layout of two GPU generations (A100
// aisle and H100 aisle) with its workload, rebuilt into a fresh cluster
// state per round.
type oracleFleet struct {
	dc *layout.Datacenter
	w  *trace.Workload
}

func newOracleFleet(t *testing.T) oracleFleet {
	t.Helper()
	cfg := layout.SmallConfig()
	cfg.Aisles, cfg.MixGPU, cfg.MixFraction = 2, layout.H100, 0.5
	dc, err := layout.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dc.Heterogeneous() {
		t.Fatal("oracle fleet must mix GPU generations")
	}
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.6,
		Duration: 24 * time.Hour, Endpoints: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return oracleFleet{dc: dc, w: w}
}

// round places up to n SaaS instances on random servers of a fresh
// state and randomizes what the request decisions read: reloading and
// zero-prefill-rate instances, backlogs from idle (tied) to past the TTFT
// SLO in both fluid and request-queue mode, KV affinity, and row power,
// aisle airflow and hot-GPU temperature on both sides of the risk gate —
// some exactly on it.
func (f oracleFleet) round(t *testing.T, rng *rand.Rand, n int) (*cluster.State, []*cluster.VM) {
	t.Helper()
	st := cluster.NewState(f.dc, f.w)
	st.Tick = []time.Duration{time.Second, 5 * time.Second}[rng.IntN(2)]
	st.Now = time.Duration(10+rng.IntN(100)) * st.Tick
	var saas []int
	for i, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS {
			saas = append(saas, i)
		}
	}
	rng.Shuffle(len(saas), func(i, j int) { saas[i], saas[j] = saas[j], saas[i] })
	servers := rng.Perm(len(f.dc.Servers))
	if n > len(saas) {
		n = len(saas)
	}
	ttft := st.SLOs.TTFT.Seconds()
	insts := make([]*cluster.VM, 0, n)
	spare := servers[n:] // free servers a migration can move to
	for k := 0; k < n; k++ {
		if err := st.Place(saas[k], servers[k]); err != nil {
			t.Fatal(err)
		}
		vm := st.VMs[saas[k]]
		if rng.IntN(6) == 0 {
			// Migrate to the other GPU generation: the instance keeps its
			// configuration and re-derives its cached rates and power.
			gen := f.dc.Servers[vm.Server].GPU.Model
			for i, id := range spare {
				if f.dc.Servers[id].GPU.Model != gen {
					if err := st.Move(saas[k], id); err != nil {
						t.Fatal(err)
					}
					spare = append(spare[:i:i], spare[i+1:]...)
					break
				}
			}
		}
		in := vm.Instance
		cfg := in.Config
		switch r := rng.IntN(10); {
		case r == 0:
			cfg.Model = llm.Llama13B // a reload-class change: reloading
		case r == 1:
			cfg.FreqFrac = 0 // a free change that zeroes the prefill rate
		case r < 5:
			cfg.FreqFrac = []float64{0.9, 0.65, 0.5}[rng.IntN(3)]
			cfg.MaxBatch = []int{64, 16, 4}[rng.IntN(3)]
		}
		reconfigureTo(in, cfg)
		if rng.IntN(2) == 0 {
			in.AttachQueue(st.Now - st.Tick)
		}
		if rng.IntN(10) >= 3 { // otherwise idle: a tied zero backlog
			secs := rng.Float64() * 2.5 * ttft
			prompt := secs * math.Max(in.PrefillRate(), 1) / 2
			if q := in.Queue(); q != nil {
				for m := 0; m < 1+rng.IntN(4); m++ {
					in.EnqueueRequest(llm.Request{
						ID: int64(m), Customer: rng.IntN(6),
						PromptTokens: int(prompt) / 2, OutputTokens: 1 + rng.IntN(200),
					})
				}
			} else {
				in.EnqueueBulk(prompt, prompt/4)
			}
		}
		for c := 0; c < 5; c++ {
			if rng.IntN(4) == 0 {
				in.Touch(c)
			}
		}
		insts = append(insts, vm)
	}
	over := 1.05
	if rng.IntN(8) == 0 {
		over = 1.3 // every limit may bind: the unsafe penalty decides
	}
	for row := range st.RowPowerW {
		st.RowPowerW[row] = (st.Budget.RowLimitW(row) + 1) * (0.3 + rng.Float64()*(over-0.3))
	}
	for a := range st.AisleDemandCFM {
		st.AisleDemandCFM[a] = (st.AisleLimitCFM(a) + 1) * (0.3 + rng.Float64()*(over-0.3))
	}
	gate := st.Spec.ThrottleTempC - 2
	for id := range st.ServerHotGPUTempC {
		st.ServerHotGPUTempC[id] = gate * (0.5 + rng.Float64()*(over-0.5))
		if rng.IntN(12) == 0 {
			st.ServerHotGPUTempC[id] = onGate(gate)
		}
	}
	return st, insts
}

// onGate returns a temperature whose utilization tempC/gate is exactly
// riskGate, the boundary at which a server's headroom reaches 0.
func onGate(gate float64) float64 {
	tc := riskGate * gate
	for tc/gate < riskGate {
		tc = math.Nextafter(tc, math.Inf(1))
	}
	for tc/gate > riskGate {
		tc = math.Nextafter(tc, math.Inf(-1))
	}
	return tc
}

// oracleRequest draws a request: customers with and without affinity,
// arrivals from well before the tick (the projected TTFT past slack × SLO)
// to inside it (the accrued wait clamps to 0), prompts from empty to four
// times the mean. One in eight lands exactly on the admission boundary of
// an idle instance at slack 1 or 2: an empty prompt that has waited exactly
// slack × TTFT SLO.
func oracleRequest(rng *rand.Rand, st *cluster.State) llm.Request {
	tickStart := st.Now - st.Tick
	req := llm.Request{ID: rng.Int64(), Customer: rng.IntN(6), OutputTokens: 1 + rng.IntN(300)}
	if rng.IntN(8) == 0 {
		req.Arrival = tickStart - time.Duration(1+rng.IntN(2))*st.SLOs.TTFT
		return req
	}
	span := st.Tick + 2*st.SLOs.TTFT
	req.Arrival = st.Now - time.Duration(rng.Int64N(int64(span)))
	if rng.IntN(6) > 0 {
		req.PromptTokens = rng.IntN(4096)
	}
	return req
}

// pruneCounts walks a TAPAS request decision as the oracle does and counts
// the candidates the scorer's lower bound rules out before reading their
// affinity and headroom, how many of those hold the customer's affinity, and
// how many affinity holders win although their unscaled score does not beat
// the best so far: the candidates a bound without the affinity factor would
// wrongly rule out.
func pruneCounts(st *cluster.State, insts []*cluster.VM, req llm.Request) (pruned, prunedAffine, rescued int) {
	best := math.Inf(1)
	for _, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		score := in.DemandSeconds()
		affine := in.HasAffinity(req.Customer)
		if !(math.Min(score, score*affinityDiscount) < best) {
			pruned++
			if affine {
				prunedAffine++
			}
			continue
		}
		unscaled := score
		if affine {
			score *= affinityDiscount
		}
		if oracleHeadroom(st, vm.Server, st.Spec.ThrottleTempC) <= 0 {
			score += unsafePenaltySecs
		}
		if score < best {
			if affine && !(unscaled < best) {
				rescued++
			}
			best = score
		}
	}
	return pruned, prunedAffine, rescued
}

// TestRequestScorerMatchesOracle pins the shared request scorer against the
// three loops it replaced: on random mixed-generation fleets, some
// instances migrated across generations, every TAPAS, SLO (slack 0.5, 1,
// 2 × affinity 0.25, 0.5, 1), PowerGov and PowerGov-Energy decision must
// equal the oracle's (idx, ok). Counters check that the random cases reach
// every branch the merge touched and the lazy scoring's bound: candidates it
// rules out, with and without affinity, and affinity holders only the
// affinity factor keeps in the race.
func TestRequestScorerMatchesOracle(t *testing.T) {
	f := newOracleFleet(t)
	rng := rand.New(rand.NewPCG(17, 29))
	tapas, noRoute := NewFull(), New(Options{Place: true, Config: true})
	pg, pge := NewPowerGov(false), NewPowerGov(true)
	var slos []*SLO
	for _, slack := range []float64{0.5, 1, 2} {
		for _, aff := range []float64{0.25, 0.5, 1} {
			s := NewSLO(slack == 1)
			s.TuneSLO(aff, slack)
			slos = append(slos, s)
		}
	}
	seen := map[string]int{}
	for round := 0; round < 300; round++ {
		st, insts := f.round(t, rng, 1+rng.IntN(16))
		for r := 0; r < 25; r++ {
			req := oracleRequest(rng, st)
			if st.Now-st.Tick < req.Arrival {
				seen["late arrival"]++
			}
			check := func(name string, got, want func() (int, bool)) (int, bool) {
				t.Helper()
				gi, gok := got()
				wi, wok := want()
				if gi != wi || gok != wok {
					t.Fatalf("round %d request %d: %s = (%d, %v), oracle (%d, %v)", round, r, name, gi, gok, wi, wok)
				}
				return gi, gok
			}
			idx, ok := check("TAPAS", func() (int, bool) { return tapas.RouteRequest(st, insts, req) },
				func() (int, bool) { return oracleTAPASRoute(tapas, st, insts, req) })
			pruned, prunedAffine, rescued := pruneCounts(st, insts, req)
			seen["pruned candidate"] += pruned
			seen["pruned candidate holding affinity"] += prunedAffine
			seen["affinity beats the unscaled bound"] += rescued
			if !ok {
				seen["TAPAS defers"]++
			} else {
				seen["TAPAS routes"]++
				if insts[idx].Instance.PrefillRate() <= 0 {
					seen["TAPAS picks a zero-rate instance"]++
				}
				if serverHeadroom(st, insts[idx].Server) <= 0 {
					seen["TAPAS picks an unsafe server"]++
				}
			}
			check("TAPAS without Route", func() (int, bool) { return noRoute.RouteRequest(st, insts, req) },
				func() (int, bool) { return oracleTAPASRoute(noRoute, st, insts, req) })
			check("PowerGov", func() (int, bool) { return pg.RouteRequest(st, insts, req) },
				func() (int, bool) { return oraclePowerGovRoute(pg, st, insts, req) })
			check("PowerGov-Energy", func() (int, bool) { return pge.RouteRequest(st, insts, req) },
				func() (int, bool) { return oraclePowerGovRoute(pge, st, insts, req) })
			// Energy weights never change eligibility, so the deadline
			// filter alone tells whether PowerGov-Energy scored or fell back.
			if _, ok := scoreRequest(st, insts, req, affinityDiscount, 1, 0); ok {
				seen["PowerGov-Energy scores"]++
			} else {
				seen["PowerGov-Energy falls back"]++
			}
			for _, s := range slos {
				_, admit := check(s.Name(), func() (int, bool) { return s.AdmitRequest(st, insts, req) },
					func() (int, bool) { return oracleSLOAdmit(s, st, insts, req) })
				if admit {
					seen["SLO admits"]++
				} else {
					seen["SLO sheds"]++
				}
			}
		}
	}
	for _, k := range []string{"late arrival", "TAPAS defers", "TAPAS routes", "TAPAS picks a zero-rate instance",
		"TAPAS picks an unsafe server", "PowerGov-Energy scores", "PowerGov-Energy falls back", "SLO admits", "SLO sheds",
		"pruned candidate", "pruned candidate holding affinity", "affinity beats the unscaled bound"} {
		if seen[k] == 0 {
			t.Errorf("no random case reached %q", k)
		}
	}
	t.Logf("branch counts: %v", seen)
}

// TestRequestScorerBoundsNegativeBacklog pins the scorer's lower bound on
// backlogs below zero, which fluid steps leave by a few ulps (for example
// -2.3e-13 decode tokens after a draining tick). There the affinity factor
// raises a score instead of lowering it, so the bound must fall back to the
// unscaled score or the best candidate would be ruled out.
func TestRequestScorerBoundsNegativeBacklog(t *testing.T) {
	f := newOracleFleet(t)
	st := cluster.NewState(f.dc, f.w)
	st.Tick = time.Minute
	st.Now = 10 * st.Tick
	var insts []*cluster.VM
	for id, vm := range st.VMs {
		if vm.Spec.Kind == trace.SaaS && len(insts) < 2 {
			if err := st.Place(id, len(insts)); err != nil {
				t.Fatal(err)
			}
			insts = append(insts, vm)
		}
	}
	insts[0].Instance.EnqueueBulk(-6e-11, 0)
	insts[1].Instance.EnqueueBulk(-1e-10, 0)
	tapas := NewFull()
	req := llm.Request{Customer: 1, PromptTokens: 100, OutputTokens: 10, Arrival: st.Now - st.Tick}
	got, ok := tapas.RouteRequest(st, insts, req)
	want, wok := oracleTAPASRoute(tapas, st, insts, req)
	if got != want || ok != wok || want != 1 {
		t.Fatalf("routed to (%d, %v), oracle (%d, %v); want the lower backlog, instance 1", got, ok, want, wok)
	}
}

// TestPickMatchesOracle pins the single configurator scan against the two
// scans it replaced, on both generations' profiles: quality floors 1 and
// 0.6, gated and ungated reloads, required demand from 0 through exact
// entry goodputs to +Inf, and limits drawn around (and exactly at) the
// entries' peak power. A tied copy of each profile rounds average power to
// 250 W steps, so the cheapest-reconfiguration tie-break decides too. Gated
// picks, which scan only the current reload class, start from every class
// of both generations, from classes without a full-quality entry at floor 1
// and from a TP off the knob grid.
func TestPickMatchesOracle(t *testing.T) {
	c := newConfigurator(nil)
	rng := rand.New(rand.NewPCG(31, 37))
	seen := map[string]int{}
	classes := map[string]int{} // gated picks by generation and cur's class
	var profiles []*llm.Profile
	for _, m := range []layout.GPUModel{layout.A100, layout.H100} {
		p := llm.BuildProfile(layout.Spec(m), llm.DefaultWorkload())
		tied := *p
		tied.Entries = slices.Clone(p.Entries)
		for i := range tied.Entries {
			tied.Entries[i].AvgServerPowerW = math.Round(tied.Entries[i].AvgServerPowerW/250) * 250
		}
		profiles = append(profiles, p, &tied)
	}
	for _, p := range profiles {
		n := len(p.Entries)
		for k := 0; k < 20000; k++ {
			cur := p.Entries[rng.IntN(n)].Config
			if rng.IntN(100) == 0 {
				cur.TP = 3 // off the knob grid: no entry shares its class
			}
			e := &p.Entries[rng.IntN(n)]
			maxFrac, maxServerW := e.PeakGPUPowerFrac, e.PeakServerPowerW
			if rng.IntN(3) > 0 {
				maxFrac = 0.2 + rng.Float64()*0.9
				maxServerW = p.Spec.ServerTDPW * (0.2 + rng.Float64()*0.9)
			}
			qualityFloor := []float64{1, emergencyQualityFloor}[rng.IntN(2)]
			required := []float64{math.Inf(1), 0, p.Entries[rng.IntN(n)].Goodput, rng.Float64() * 1.1 * p.Entries[0].Goodput}[rng.IntN(4)]
			reloadOK := rng.IntN(2) == 0
			if !reloadOK {
				classes[fmt.Sprintf("%v from %v/%v/TP%d", p.Spec.Model, cur.Model, cur.Quant, cur.TP)]++
				if qualityFloor == 1 && (cur.Model != llm.Llama70B || cur.Quant != llm.FP16) {
					seen["gated at floor 1 from a class without full quality"]++
				}
			}
			picked := c.pick(p, cur, maxFrac, maxServerW, qualityFloor, required, reloadOK)
			gok := picked != nil
			var got llm.ProfileEntry
			if gok {
				got = *picked
			}
			want, wok := oraclePick(p, cur, maxFrac, maxServerW, qualityFloor, required, reloadOK)
			if got != want || gok != wok {
				t.Fatalf("pick(cur %v, frac %v, server %v W, floor %v, required %v, reload %v) = %v (%v), oracle %v (%v)",
					cur, maxFrac, maxServerW, qualityFloor, required, reloadOK, got.Config, gok, want.Config, wok)
			}
			outcome := "none"
			switch {
			case gok && got.Goodput >= required:
				outcome = "covers demand"
			case gok:
				outcome = "falls back"
			}
			seen[outcome+" at floor "+map[bool]string{true: "1", false: "0.6"}[qualityFloor == 1]+map[bool]string{true: "", false: ", gated"}[reloadOK]]++
		}
	}
	for _, m := range []layout.GPUModel{layout.A100, layout.H100} {
		for _, model := range []llm.ModelSize{llm.Llama7B, llm.Llama13B, llm.Llama70B} {
			for _, quant := range []llm.Quant{llm.FP16, llm.FP8} {
				for _, tp := range []int{2, 3, 4, 8} {
					if k := fmt.Sprintf("%v from %v/%v/TP%d", m, model, quant, tp); classes[k] == 0 {
						t.Errorf("no gated pick started %s", k)
					}
				}
			}
		}
	}
	if seen["gated at floor 1 from a class without full quality"] == 0 {
		t.Error("no gated pick at floor 1 started from a class without full-quality entries")
	}
	for _, floor := range []string{"1", "0.6"} {
		for _, gate := range []string{"", ", gated"} {
			for _, outcome := range []string{"covers demand", "falls back", "none"} {
				if k := outcome + " at floor " + floor + gate; seen[k] == 0 {
					t.Errorf("no random case reached %q", k)
				}
			}
		}
	}
	t.Logf("outcome counts: %v", seen)
}

// TestRequestDecisionsAllocFree pins that every policy's request decision,
// the configurator scan, a steady-state configure pass over a placed fleet
// and a request-queue Step that only advances a running decode batch stay
// off the heap.
func TestRequestDecisionsAllocFree(t *testing.T) {
	f := newOracleFleet(t)
	rng := rand.New(rand.NewPCG(41, 43))
	st, insts := f.round(t, rng, 16)
	req := llm.Request{Customer: 1, PromptTokens: 1024, OutputTokens: 256, Arrival: st.Now - st.Tick}
	tapas, slo, pg, pge := NewFull(), NewSLO(true), NewPowerGov(false), NewPowerGov(true)
	c := newConfigurator(nil)
	p := llm.BuildProfile(layout.Spec(layout.A100), llm.DefaultWorkload())

	// A configure pass over the placed fleet: rows and aisles under target
	// keep reloads gated, and a backlog past 3 s makes every instance
	// re-decide on every pass. The first passes grow the scratch and settle
	// the configurations.
	prof, err := ProfilesFor(f.dc)
	if err != nil {
		t.Fatal(err)
	}
	cst, _ := f.round(t, rng, 16)
	for row := range cst.RowPowerW {
		cst.RowPowerW[row] = cst.Budget.RowLimitW(row) / 2
	}
	for a := range cst.AisleDemandCFM {
		cst.AisleDemandCFM[a] = cst.AisleLimitCFM(a) / 2
	}
	for _, vm := range cst.VMs {
		if vm.Instance != nil {
			vm.Instance.BacklogSecs = 4
		}
	}
	cfg := newConfigurator(prof)
	for pass := 0; pass < 3; pass++ {
		cfg.configure(cst)
	}

	// A request-queue instance with a running batch that neither admits
	// (nothing waits) nor completes (outputs far longer than the steps run).
	spec := layout.Spec(layout.A100)
	qin := llm.NewInstance(spec, llm.DefaultConfig(), llm.DefaultWorkload(), llm.ComputeSLOs(spec, llm.DefaultConfig(), llm.DefaultWorkload()))
	qin.AttachQueue(0)
	for r := 0; r < 8; r++ {
		qin.EnqueueRequest(llm.Request{ID: int64(r), Customer: r, PromptTokens: 512, OutputTokens: 1 << 30})
	}
	qin.Step(time.Minute)
	if q := qin.Queue(); q.WaitingLen() != 0 || q.ActiveLen() != 8 {
		t.Fatalf("queue holds %d waiting and %d running requests, want 0 and 8", q.WaitingLen(), q.ActiveLen())
	}
	served := qin.ServedTokens

	for name, decide := range map[string]func(){
		"TAPAS":           func() { tapas.RouteRequest(st, insts, req) },
		"SLO":             func() { slo.AdmitRequest(st, insts, req) },
		"PowerGov":        func() { pg.RouteRequest(st, insts, req) },
		"PowerGov-Energy": func() { pge.RouteRequest(st, insts, req) },
		"pick":            func() { c.pick(p, llm.DefaultConfig(), 0.8, 5000, 1, math.Inf(1), false) },
		"configure":       func() { cfg.configure(cst) },
		"decode step":     func() { qin.Step(time.Second) },
	} {
		if allocs := testing.AllocsPerRun(100, decide); allocs != 0 {
			t.Errorf("%s allocates %.1f times per decision, want 0", name, allocs)
		}
	}
	if q := qin.Queue(); q.WaitingLen() != 0 || q.ActiveLen() != 8 || qin.CompletedRequests != 0 || qin.ServedTokens <= served {
		t.Errorf("decode steps admitted, completed or served nothing: %d waiting, %d running, %v completed",
			q.WaitingLen(), q.ActiveLen(), qin.CompletedRequests)
	}
}

// parentServerHeadroom is serverHeadroom as it stood before it read the
// layout's server index and divided once: every use divided into its own
// headroom, the smallest kept.
func parentServerHeadroom(st *cluster.State, id int) float64 {
	srv := st.DC.Servers[id]
	rowUse := st.RowPowerW[srv.Row] / (st.Budget.RowLimitW(srv.Row) + 1)
	aisleUse := st.AisleDemandCFM[srv.Aisle] / (st.AisleLimitCFM(srv.Aisle) + 1)
	tempUse := st.ServerHotGPUTempC[id] / (st.Spec.ThrottleTempC - 2)
	head := 1.0
	for _, use := range [3]float64{rowUse, aisleUse, tempUse} {
		if use >= riskGate {
			return 0
		}
		if h := (riskGate - use) / riskGate; h < head {
			head = h
		}
	}
	return head
}

// reading returns a telemetry value x whose use x/d is exactly u when one
// exists next to u·d, as onGate does for the risk gate.
func reading(u, d float64) float64 {
	x := u * d
	for x/d < u {
		x = math.Nextafter(x, math.Inf(1))
	}
	for x/d > u {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// TestServerHeadroomMatchesOracle compares serverHeadroom with the parent's
// body by float bits on random servers of a mixed fleet whose row power,
// aisle airflow and hottest GPU give uses drawn from: random values on both
// sides of the gate, exactly the gate, ties between two or three uses,
// zeros of both signs, negatives, NaN and ±Inf.
func TestServerHeadroomMatchesOracle(t *testing.T) {
	f := newOracleFleet(t)
	st := cluster.NewState(f.dc, f.w)
	rng := rand.New(rand.NewPCG(24, 29))
	seen := map[string]int{}
	draw := func() (float64, string) {
		switch rng.IntN(12) {
		case 0:
			return riskGate, "at the gate"
		case 1:
			return math.NaN(), "NaN"
		case 2:
			return math.Inf(1), "+Inf"
		case 3:
			return math.Inf(-1), "-Inf"
		case 4:
			return -rng.Float64(), "negative"
		case 5:
			return math.Copysign(0, float64(2*rng.IntN(2)-1)), "zero"
		default:
			return 1.1 * rng.Float64(), "random"
		}
	}
	for k := 0; k < 20000; k++ {
		id := rng.IntN(len(f.dc.Servers))
		srv := f.dc.Servers[id]
		var uses [3]float64
		for i := range uses {
			var kind string
			uses[i], kind = draw()
			seen[kind]++
		}
		if rng.IntN(4) == 0 { // a tie: two or three uses equal
			uses[1] = uses[0]
			if rng.IntN(2) == 0 {
				uses[2] = uses[0]
			}
		}
		rowD := st.Budget.RowLimitW(srv.Row) + 1
		aisleD := st.AisleLimitCFM(srv.Aisle) + 1
		tempD := st.Spec.ThrottleTempC - 2
		st.RowPowerW[srv.Row] = reading(uses[0], rowD)
		st.AisleDemandCFM[srv.Aisle] = reading(uses[1], aisleD)
		st.ServerHotGPUTempC[id] = reading(uses[2], tempD)
		got, want := serverHeadroom(st, id), parentServerHeadroom(st, id)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("server %d, uses %v: headroom %v, oracle %v", id, uses, got, want)
		}
		computed := [3]float64{st.RowPowerW[srv.Row] / rowD, st.AisleDemandCFM[srv.Aisle] / aisleD, st.ServerHotGPUTempC[id] / tempD}
		for i, u := range computed {
			if u == riskGate {
				seen["use exactly at the gate"]++
			}
			for _, v := range computed[i+1:] {
				if u == v && u > 0 && u < riskGate {
					seen["tied uses below the gate"]++
				}
			}
		}
		switch {
		case want == 0:
			seen["headroom 0"]++
		case want == 1:
			seen["headroom 1"]++
		default:
			seen["headroom in (0, 1)"]++
		}
	}
	for _, k := range []string{"use exactly at the gate", "tied uses below the gate", "NaN", "+Inf", "-Inf", "negative", "zero",
		"headroom 0", "headroom 1", "headroom in (0, 1)"} {
		if seen[k] == 0 {
			t.Errorf("no random server reached %q", k)
		}
	}
	t.Logf("case counts: %v", seen)
}
