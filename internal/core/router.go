package core

import (
	"math"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
)

// router implements TAPAS request routing (§4.2): it estimates the risk of
// violating the three operational limits — aisle airflow, row power, server
// temperature — filters out instances with high violation risk, then applies
// consolidation (fill warm instances first, letting others idle) followed by
// headroom-proportional spreading. KV-cache affinity is approximated in the
// fluid model by the stable consolidation order, which keeps a customer's
// demand on the same instances across ticks.
//
// route runs once per endpoint per tick, so its working sets (scored
// instances, consolidation order, grants) live on the router struct and are
// reused across calls: steady-state routing performs no heap allocations.
type router struct {
	prof *Profiles

	scored []routeScored
	order  []int
	grants []float64
}

type routeScored struct {
	vm       *cluster.VM
	headroom float64 // 0 = at risk
	capacity float64 // tokens this tick
	hash     uint64  // consolidation rank, precomputed once per scoring
}

// riskGate is the utilization of a limit beyond which no further demand is
// routed toward it.
const riskGate = 0.97

// routeHash mixes an endpoint and server ID into a stable consolidation
// rank (splitmix64 finalizer).
func routeHash(endpoint, server int) uint64 {
	z := uint64(endpoint)*0x9e3779b97f4a7c15 + uint64(server)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *router) route(st *cluster.State, ep trace.EndpointSpec, prompt, output float64) {
	insts := st.EndpointInstances(ep.ID)
	if len(insts) == 0 {
		return
	}
	tickSecs := st.Tick.Seconds()
	scoredInsts := r.scored[:0]
	aggCap := 0.0 // serving capacity of instances with any headroom
	for _, vm := range insts {
		in := vm.Instance
		if in.Reloading() {
			scoredInsts = append(scoredInsts, routeScored{vm: vm, hash: routeHash(ep.ID, vm.Server)})
			continue
		}
		head := serverHeadroom(st, vm.Server)
		capTokens := 0.0
		if g, ok := in.ConfigGoodput(st.ProfileFor(vm.Server)); ok {
			capTokens = g * tickSecs
		}
		scoredInsts = append(scoredInsts, routeScored{vm: vm, headroom: head, capacity: capTokens, hash: routeHash(ep.ID, vm.Server)})
		if head > 0 {
			aggCap += capTokens
		}
	}
	r.scored = scoredInsts // keep the grown buffer for the next call

	demand := prompt + output
	promptShare := prompt / demand

	// Low-load regime: consolidate onto a stable subset of safe instances
	// (energy saving + KV-cache affinity: the same instances keep serving
	// the same customers across ticks), letting the rest idle.
	if demand < 0.5*aggCap {
		if cap(r.order) < len(scoredInsts) {
			r.order = make([]int, 0, cap(scoredInsts))
		}
		order := r.order[:len(scoredInsts)]
		for i := range order {
			order[i] = i
		}
		consolidationSort(order, scoredInsts)
		remaining := demand
		for _, idx := range order {
			if remaining <= 0 {
				return
			}
			s := scoredInsts[idx]
			if s.headroom <= 0.2 || s.capacity <= 0 {
				continue
			}
			take := s.capacity * 0.6
			if take > remaining {
				take = remaining
			}
			s.vm.Instance.EnqueueBulk(take*promptShare, take*(1-promptShare))
			remaining -= take
		}
		if remaining <= 0 {
			return
		}
		demand = remaining // overflow falls through to spreading
	}

	// High-load regime: water-fill proportional to capacity × headroom², so
	// instances on power- or thermally-stressed infrastructure receive
	// quadratically less demand — but never grant any instance more than it
	// can serve, redistributing the clamped excess over remaining slack.
	if cap(r.grants) < len(scoredInsts) {
		r.grants = make([]float64, 0, cap(scoredInsts))
	}
	grants := r.grants[:len(scoredInsts)]
	for i := range grants {
		grants[i] = 0
	}
	totalW := 0.0
	for _, s := range scoredInsts {
		totalW += s.capacity * s.headroom * s.headroom
	}
	remaining := demand
	if totalW > 0 {
		for i, s := range scoredInsts {
			w := s.capacity * s.headroom * s.headroom / totalW
			g := demand * w
			if max := s.capacity * 0.95; g > max {
				g = max
			}
			grants[i] = g
			remaining -= g
		}
		// Second pass: pour the clamped excess into remaining serving slack.
		if remaining > 1e-9 {
			slackTotal := 0.0
			for i, s := range scoredInsts {
				if s.headroom > 0 {
					slackTotal += maxf(s.capacity*0.95-grants[i], 0)
				}
			}
			if slackTotal > 0 {
				for i, s := range scoredInsts {
					if s.headroom <= 0 {
						continue
					}
					add := maxf(s.capacity*0.95-grants[i], 0) / slackTotal * remaining
					if add > 0 {
						grants[i] += add
					}
				}
				remaining = 0
			}
		}
	}
	// Whatever still remains (fleet overloaded or everyone at risk) is
	// split evenly — serving beats dropping.
	if remaining > 1e-9 {
		live := 0
		for _, s := range scoredInsts {
			if !s.vm.Instance.Reloading() {
				live++
			}
		}
		if live > 0 {
			even := remaining / float64(live)
			for i, s := range scoredInsts {
				if !s.vm.Instance.Reloading() {
					grants[i] += even
				}
			}
		}
	}
	for i, s := range scoredInsts {
		if grants[i] > 0 {
			s.vm.Instance.EnqueueBulk(grants[i]*promptShare, grants[i]*(1-promptShare))
		}
	}
}

// serverHeadroom folds a server's three limit utilizations (its row's power,
// its aisle's airflow and its hottest GPU's temperature) into one headroom
// score: 0 when any limit sits beyond the risk gate, otherwise the smallest
// normalized distance to the gate, (riskGate−use)/riskGate, capped at 1.
// Binned routing and the request scorer both read it.
//
// That distance never increases as the use grows, rounding included, so the
// smallest distance is the largest use's: the score takes the largest use
// and divides once. A NaN use fails every comparison and drops out.
func serverHeadroom(st *cluster.State, id int) float64 {
	row, aisle := int(st.DC.ServerRow[id]), int(st.DC.ServerAisle[id])
	use := math.Inf(-1)
	if u := st.RowPowerW[row] / (st.Budget.RowLimitW(row) + 1); u > use {
		use = u
	}
	if u := st.AisleDemandCFM[aisle] / (st.AisleLimitCFM(aisle) + 1); u > use {
		use = u
	}
	if u := st.ServerHotGPUTempC[id] / (st.Spec.ThrottleTempC - 2); u > use {
		use = u
	}
	if use >= riskGate {
		return 0
	}
	if h := (riskGate - use) / riskGate; h < 1 {
		return h
	}
	return 1
}

// scoreRequest is the request-level scorer every policy family shares: it
// returns the instance with the lowest score, the first on ties, and false
// when no instance qualifies. Reloading instances never qualify. An
// instance's score is its queued seconds of work; with an energy normalizer
// minJ > 0 it is (work + 1 s) × energy per token / minJ instead, where the
// +1 s keeps the efficiency preference decisive between idle instances.
// Instances already holding the customer's KV-cache state have the score
// scaled by affinity, in (0, 1], and instances without thermal/power
// headroom pay unsafePenaltySecs. Both only matter to a candidate that can
// still win, so they are read lazily: the affinity map only when the
// candidate's lower bound (its score scaled by affinity) beats the best so
// far, and the server's headroom only when its scaled score still does.
//
// A slack > 0 also admits only instances whose projected time-to-first-token
// fits slack × TTFT SLO: the wait the request has already accrued since
// arrival (the engine routes at tick start, so a request arriving just after
// a boundary carries most of a tick on the clock before any instance sees
// it), the queued work ahead of it and its own prefill time. Instances that
// cannot prefill never fit. Slack 0 admits every instance, including those.
func scoreRequest(st *cluster.State, insts []*cluster.VM, req llm.Request, affinity, slack, minJ float64) (int, bool) {
	// The engine admits at the start of the current tick; st.Now is its end.
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
		backlog := in.DemandSeconds()
		if slack > 0 {
			pr := in.PrefillRate()
			if pr <= 0 || waited+backlog+float64(req.PromptTokens)/pr > slack*in.SLOs.TTFT.Seconds() {
				continue // this instance would already blow the deadline
			}
		}
		score := backlog
		if minJ > 0 {
			score = (backlog + 1) * energyPerTokenEst(vm) / minJ
		}
		// The affinity factor, in (0, 1], and the penalty, ≥ 0, leave the
		// score at least score × affinity, or at least score when a backlog
		// a few ulps below zero makes the product the larger.
		bound := score * affinity
		if score < bound {
			bound = score
		}
		if !(bound < bestScore) {
			continue
		}
		if in.HasAffinity(req.Customer) {
			score *= affinity
		}
		if !(score < bestScore) {
			continue // the penalty only adds
		}
		if serverHeadroom(st, vm.Server) <= 0 {
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

// consolidationSort stably orders instance indexes for the low-load regime:
// serving-capable first, then instances already busy (KV reuse), ties broken
// by the per-endpoint route hash. It is a hand-rolled insertion sort because
// sort.SliceStable allocates its closure header on every call and this runs
// per endpoint per tick; endpoint fleets are tens of instances, where
// insertion sort is also the faster algorithm.
func consolidationSort(order []int, scored []routeScored) {
	less := func(a, b int) bool {
		ia, ib := scored[a], scored[b]
		if (ia.headroom > 0) != (ib.headroom > 0) {
			return ia.headroom > 0
		}
		// Sticky toward instances already serving (KV reuse). Ties
		// break on a per-endpoint hash of the server, which is stable
		// across ticks (affinity) but decorrelated across endpoints —
		// otherwise every endpoint would pile onto the same rows and
		// oscillate against the shared telemetry.
		ba, bb := ia.vm.Instance.BusyFrac > 0.15, ib.vm.Instance.BusyFrac > 0.15
		if ba != bb {
			return ba
		}
		return ia.hash < ib.hash
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && less(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
