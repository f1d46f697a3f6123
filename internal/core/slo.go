package core

import (
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

// AdmitRequest implements sim.RequestAdmitter with the shared request
// scorer (scoreRequest): the TAPAS routing score (queued work, discounted by
// the affinity weight, unsafe-penalized) among the instances whose projected
// TTFT fits slack × TTFT SLO. When none fits — every candidate is
// overloaded or reloading, or the request is already too old — it is shed.
func (s *SLO) AdmitRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	return scoreRequest(st, insts, req, s.affinityWeight, s.admissionSlack, 0)
}
