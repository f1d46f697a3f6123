package core

import (
	"math"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/trace"
)

// allocator implements TAPAS workload placement (§4.1) as the three rules of
// §4.5: a validator filtering aisles/rows that would exceed airflow or power
// envelopes at predicted peak, a temperature preference (IaaS → cool
// servers, SaaS → warm servers), and an IaaS/SaaS balance preference.
//
// Most of a placement's inputs survive to the next one, so the allocator
// keeps them across calls and is tied to the State it first places into.
type allocator struct {
	prof *Profiles

	// Validator projections. rowSumW and aisleSumCFM are each row's
	// predicted peak power and each aisle's predicted peak airflow, summed
	// from zero over their servers in ascending server-ID order: the addends
	// and order of a whole-fleet sweep, so the sums are bit-identical to
	// one. A row is re-summed only when its cluster.State.RowOccEpoch or the
	// State's PeakEpoch moved since its last sum, an aisle only when one of
	// its rows was. srvPeakCFM keeps each server's airflow addend for the
	// aisle sums; rowSeen and peakSeen are the epochs last summed at.
	srvPeakCFM  []float64
	rowSumW     []float64
	aisleSumCFM []float64
	aisleDirty  []bool
	rowSeen     []uint64
	peakSeen    uint64

	// Scoring memo: partial holds GPUTemp.InletPartial of every GPU at its
	// server's reference inlet, valid while partStamp[server] == partGen.
	// partGen advances whenever the reference outside temperature, whose
	// bits are refBits, changes.
	partial   []float64
	partStamp []uint64
	partGen   uint64
	refBits   uint64

	// Per-placement scratch, reused across calls: rowPeakW is rowSumW
	// floored by the row templates, and cands the validator's survivors.
	rowPeakW []float64
	cands    []placeCandidate

	// rowTplPeakW is the hour-of-week template peak per row, rebuilt from
	// the rolling row-power telemetry (power.BuildTemplateRing over
	// cluster.State.RowPowerHist) on a templateRefresh cadence. −1 while a
	// row has less than a week of history — the validator then relies on
	// the per-VM model projections alone, exactly as it did before
	// templates existed (§4.1: peak assumptions until history accrues).
	rowTplPeakW []float64
	rowTplAt    time.Duration
	rowTplInit  bool
}

// templateRefresh is how often the allocator rebuilds row power templates
// from telemetry; template shape drifts slowly (diurnal/weekly), so rebuilds
// are cheap background maintenance, not per-placement work.
const templateRefresh = 6 * time.Hour

// templatePercentile matches the paper's conservative row templates
// (Fig. 14: P99 underpredicts < 4% of row-hours).
const templatePercentile = 99

// templateSamplesPerHour converts the history resolution to template
// buckets.
const templateSamplesPerHour = int(time.Hour / cluster.HistoryRes)

// refreshRowTemplates rebuilds the per-row template peaks when stale.
func (a *allocator) refreshRowTemplates(st *cluster.State) {
	if a.rowTplInit && st.Now-a.rowTplAt < templateRefresh {
		return
	}
	if a.rowTplPeakW == nil {
		a.rowTplPeakW = make([]float64, len(st.DC.Rows))
	}
	a.rowTplInit = true
	a.rowTplAt = st.Now
	for row := range a.rowTplPeakW {
		tpl, err := power.BuildTemplateRing(st.RowPowerHist[row], templateSamplesPerHour, templatePercentile)
		if err != nil {
			a.rowTplPeakW[row] = -1 // under a week of history
			continue
		}
		a.rowTplPeakW[row] = tpl.Peak()
	}
}

type placeCandidate struct {
	server   int
	predTemp float64
	row      int
	model    layout.GPUModel
}

// tempMargin keeps predicted GPU temperature this far below the throttle
// threshold when admitting SaaS VMs onto warm servers.
const tempMargin = 2.0

func (a *allocator) place(st *cluster.State, vm *cluster.VM) (int, bool) {
	estLoad := st.EstimateVMPeakLoad(vm.Spec)
	// Per-generation projections: a candidate VM draws (and blows) more on
	// an H100 server than on an A100 one, so the validator evaluates the
	// placement with the models of each candidate's generation. Uniform
	// fleets index one fit everywhere.
	var newPeakWBy, newPeakCFMBy, idleWBy, idleCFMBy [layout.GPUModelCount]float64
	for m := range newPeakWBy {
		gm := layout.GPUModel(m)
		newPeakWBy[m] = a.prof.PowerFor(gm).Predict(estLoad)
		newPeakCFMBy[m] = a.prof.AirflowFor(gm).Predict(estLoad)
		idleWBy[m] = a.prof.PowerFor(gm).Predict(0)
		idleCFMBy[m] = a.prof.AirflowFor(gm).Predict(0)
	}
	a.refreshRowTemplates(st)

	// Validator: predicted peak power per row / airflow per aisle with the
	// candidate VM added. With under a week of history the paper assumes
	// peak-load conditions, which is what EstimateVMPeakLoad degrades to.
	a.syncPeaks(st)
	rowPeakW, aislePeakCFM := a.rowPeakW, a.aisleSumCFM
	// Once a row has a week of telemetry, its observed template peak floors
	// the model projection: rows whose history already shows draw near the
	// envelope stay closed to new load even when per-VM estimates are
	// optimistic (the paper's template-based row prediction, Fig. 14a).
	for row, sum := range a.rowSumW {
		rowPeakW[row] = sum
		if tpl := a.rowTplPeakW[row]; tpl > sum {
			rowPeakW[row] = tpl
		}
	}

	// Predicted hottest-GPU temperature per free server at the VM's load,
	// under reference hot conditions (placement is a long-horizon choice).
	refOutside := st.OutsideC + 4
	if refOutside < 30 {
		refOutside = 30
	}
	a.keyInlets(st, refOutside)
	cands := a.cands[:0]
	for _, id := range st.FreeServers() {
		srv := st.DC.Servers[id]
		m := srv.GPU.Model
		if rowPeakW[srv.Row]-idleWBy[m]+newPeakWBy[m] > st.DC.Rows[srv.Row].ProvPowerW {
			continue
		}
		if aislePeakCFM[srv.Aisle]-idleCFMBy[m]+newPeakCFMBy[m] > st.DC.Aisles[srv.Aisle].ProvAirflowCFM {
			continue
		}
		temp := a.hottest(st, id, refOutside, estLoad)
		cands = append(cands, placeCandidate{server: id, predTemp: temp, row: srv.Row, model: m})
	}
	a.cands = cands // keep the grown buffer for the next placement
	if len(cands) == 0 {
		return 0, false
	}

	// Temperature preference (rule 2). The "cold group" for a VM is the set
	// of servers whose projected temperature — at the VM's own predicted
	// load — is within coldBandC of the best achievable. IaaS VMs must land
	// in their cold group, but take its *warmest* member, so the very
	// coolest servers remain available for hotter customers arriving later
	// (hotter VMs project hotter everywhere, hence get the cool hardware).
	// SaaS VMs prefer the warmest server that stays safely below throttle.
	minProj := cands[0].predTemp
	for _, c := range cands[1:] {
		if c.predTemp < minProj {
			minProj = c.predTemp
		}
	}
	throttleC := st.Spec.ThrottleTempC
	inGroup := func(temp float64) bool {
		if vm.Spec.Kind == trace.IaaS {
			return temp <= minProj+coldBandC
		}
		return temp <= throttleC-tempMargin
	}

	best, bestScore := -1, 1<<30
	bestTemp := 0.0
	for _, c := range cands {
		tempScore := 1
		if inGroup(c.predTemp) {
			tempScore = 0
		}
		// Power preference: avoid concentrating synchronous peaks — prefer
		// rows whose predicted post-placement peak stays low (Insight #3:
		// placement relieves hotspots and smooths power spikes).
		peakFrac := (rowPeakW[c.row] - idleWBy[c.model] + newPeakWBy[c.model]) / st.DC.Rows[c.row].ProvPowerW
		var powScore int
		switch {
		case peakFrac <= 0.75:
			powScore = 0
		case peakFrac <= 0.85:
			powScore = 1
		case peakFrac <= 0.95:
			powScore = 2
		default:
			powScore = 3
		}
		// Balance preference (rule 3): prefer rows where this VM kind is
		// under-represented. diff = other-kind count − same-kind count.
		iaas, saas := st.RowMix(c.row)
		var balScore int
		diff := saas - iaas
		if vm.Spec.Kind == trace.SaaS {
			diff = iaas - saas
		}
		switch {
		case diff > 1: // other kind heavy: adding here improves balance
			balScore = 0
		case diff >= -1: // balanced
			balScore = 1
		default: // already heavy in this kind
			balScore = 2
		}
		score := tempScore*16 + powScore*4 + balScore
		better := score < bestScore
		if score == bestScore {
			if tempScore == 0 {
				// Within the preferred group take the warmest member (both
				// kinds): it conserves the coolest servers.
				better = c.predTemp > bestTemp
			} else {
				// Outside the group, degrade gracefully to the coolest.
				better = c.predTemp < bestTemp
			}
		}
		if better {
			best, bestScore, bestTemp = c.server, score, c.predTemp
		}
	}
	return best, best != -1
}

// coldBandC is the projected-temperature slack defining a VM's cold group.
const coldBandC = 2.0

// syncPeaks brings the validator's row and aisle projections up to date,
// re-summing only the rows whose inputs changed since their last sum.
func (a *allocator) syncPeaks(st *cluster.State) {
	all := a.rowSumW == nil || st.PeakEpoch != a.peakSeen
	if a.rowSumW == nil {
		a.srvPeakCFM = make([]float64, len(st.DC.Servers))
		a.rowSumW = make([]float64, len(st.DC.Rows))
		a.rowPeakW = make([]float64, len(st.DC.Rows))
		a.rowSeen = make([]uint64, len(st.DC.Rows))
		a.aisleSumCFM = make([]float64, len(st.DC.Aisles))
		a.aisleDirty = make([]bool, len(st.DC.Aisles))
	}
	a.peakSeen = st.PeakEpoch
	for row, r := range st.DC.Rows {
		if !all && st.RowOccEpoch[row] == a.rowSeen[row] {
			continue
		}
		a.rowSeen[row] = st.RowOccEpoch[row]
		sum := 0.0
		for _, srv := range r.Servers {
			load := 0.0
			if vmID := st.ServerVM[srv.ID]; vmID != -1 {
				load = st.EstimateVMPeakLoad(st.VMs[vmID].Spec)
			}
			sum += a.prof.PowerFor(srv.GPU.Model).Predict(load)
			a.srvPeakCFM[srv.ID] = a.prof.AirflowFor(srv.GPU.Model).Predict(load)
		}
		a.rowSumW[row] = sum
		a.aisleDirty[r.Aisle] = true
	}
	for aisle, dirty := range a.aisleDirty {
		if dirty {
			a.aisleSumCFM[aisle] = a.sumAisle(st.DC.Aisles[aisle])
			a.aisleDirty[aisle] = false
		}
	}
}

// sumAisle adds up an aisle's per-server airflow projections in ascending
// server-ID order. Each row lists its servers in ascending ID, but
// oversubscription appends both rows' extra racks at the end of the ID space,
// so the rows are merged by ID rather than concatenated as Aisle.Servers
// does.
func (a *allocator) sumAisle(ai *layout.Aisle) float64 {
	r0, r1 := ai.Rows[0].Servers, ai.Rows[1].Servers
	sum := 0.0
	for len(r0) > 0 || len(r1) > 0 {
		var id int
		if len(r1) == 0 || len(r0) > 0 && r0[0].ID < r1[0].ID {
			id, r0 = r0[0].ID, r0[1:]
		} else {
			id, r1 = r1[0].ID, r1[1:]
		}
		sum += a.srvPeakCFM[id]
	}
	return sum
}

// keyInlets keys the scoring memo on this placement's reference outside
// temperature, allocating the memo on first use.
func (a *allocator) keyInlets(st *cluster.State, refOutside float64) {
	rb := math.Float64bits(refOutside)
	if a.partial == nil {
		a.partial = make([]float64, len(st.DC.Servers)*st.GPUsPerServer)
		a.partStamp = make([]uint64, len(st.DC.Servers))
		a.partGen, a.refBits = 1, rb
	}
	if rb != a.refBits {
		a.partGen++
		a.refBits = rb
	}
}

// hottest returns a server's predicted hottest-GPU temperature at the
// reference outside temperature keyInlets last saw and the VM's estimated
// load, finishing the memoized inlet partials.
func (a *allocator) hottest(st *cluster.State, id int, refOutside, estLoad float64) float64 {
	part := a.partial[id*st.GPUsPerServer : (id+1)*st.GPUsPerServer]
	if a.partStamp[id] != a.partGen {
		inlet := a.prof.Inlet.Predict(id, refOutside, 0.8)
		for g := range part {
			part[g] = a.prof.GPUTemp.InletPartial(id, g, inlet)
		}
		a.partStamp[id] = a.partGen
	}
	temp := 0.0
	for g, p := range part {
		if t := a.prof.GPUTemp.AddPower(id, g, p, estLoad); t > temp {
			temp = t
		}
	}
	return temp
}
