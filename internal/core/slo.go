package core

import (
	"math"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
)

// SLO is the deadline-aware scheduling policy family for request-level
// replay. It keeps the full TAPAS stack for placement, binned routing,
// configuration and capping, and replaces per-request routing with
// admission control: a request is placed on the best-scoring instance whose
// projected time-to-first-token still fits inside the TTFT SLO (scaled by
// an admission slack), and shed outright when no instance can make the
// deadline — trading completed volume for the latency of what remains
// instead of blowing every deadline under overload.
//
// Scoring generalizes TAPAS's request router: queued seconds of work,
// discounted by a tunable affinity weight (TAPAS's fixed 0.5) for instances
// already holding the customer's KV-cache state, plus the thermal/power
// unsafe penalty. The EDF variant additionally switches per-instance queues
// to earliest-deadline-first prefill order.
//
// Both knobs are sweepable as campaign axes (sim.Scenario.SLOSched →
// TuneSLO): affinityWeight in (0, 1], admissionSlack > 0 where 1 admits
// exactly up to the SLO and larger values admit more optimistically.
type SLO struct {
	*TAPAS
	edf            bool
	affinityWeight float64
	admissionSlack float64
}

// NewSLO builds the deadline-aware admission policy; edf additionally
// selects earliest-deadline-first queue order on every instance.
func NewSLO(edf bool) *SLO {
	return &SLO{
		TAPAS:          NewFull(),
		edf:            edf,
		affinityWeight: affinityDiscount,
		admissionSlack: 1,
	}
}

// Name implements sim.Policy.
func (s *SLO) Name() string {
	if s.edf {
		return "SLO-EDF"
	}
	return "SLO-Admit"
}

// TuneSLO implements sim.SLOTunable: the engine forwards the scenario's
// SLOSched values once per run. Non-positive values keep the defaults
// (affinity weight 0.5, admission slack 1).
func (s *SLO) TuneSLO(affinityWeight, admissionSlack float64) {
	if affinityWeight > 0 {
		s.affinityWeight = affinityWeight
	}
	if admissionSlack > 0 {
		s.admissionSlack = admissionSlack
	}
}

// QueueDiscipline implements sim.RequestScheduler.
func (s *SLO) QueueDiscipline() llm.Discipline {
	if s.edf {
		return llm.EDF
	}
	return llm.FIFO
}

// AdmitRequest implements sim.RequestAdmitter. Each candidate instance gets
// the TAPAS routing score (queued work, affinity-discounted, unsafe-
// penalized) plus a projected TTFT: the wait the request has already accrued
// since arrival (the engine routes at tick start, so a request arriving just
// after a boundary carries most of a tick on the clock before any instance
// sees it), the queued seconds of work ahead of it, and its own prefill
// time. The request goes to the best-scoring instance whose projection fits
// slack × TTFT SLO; when none does — every candidate is overloaded or
// reloading, or the request is already too old — it is shed.
func (s *SLO) AdmitRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	throttleC := st.Spec.ThrottleTempC
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
		pr := in.PrefillRate()
		if pr <= 0 {
			continue
		}
		backlog := in.DemandSeconds()
		projTTFT := waited + backlog + float64(req.PromptTokens)/pr
		if projTTFT > s.admissionSlack*in.SLOs.TTFT.Seconds() {
			continue // this instance would already blow the deadline
		}
		score := backlog
		if in.HasAffinity(req.Customer) {
			score *= s.affinityWeight
		}
		srv := st.DC.Servers[vm.Server]
		rowUse := st.RowPowerW[srv.Row] / (st.Budget.RowLimitW(srv.Row) + 1)
		aisleUse := st.AisleDemandCFM[srv.Aisle] / (st.AisleLimitCFM(srv.Aisle) + 1)
		tempUse := st.ServerHotGPUTempC[vm.Server] / (throttleC - 2)
		if headroomOf(rowUse, aisleUse, tempUse) <= 0 {
			score += unsafePenaltySecs
		}
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return 0, false // no instance can meet the deadline: shed
	}
	return best, true
}
