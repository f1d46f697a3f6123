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
	// floored by the row templates, and offers the validator's survivors.
	rowPeakW []float64
	offers   []rowOffer

	// Row index: one loadTable per VM load estimate placed since st.Now or
	// partGen last changed, keyed by math.Float64bits of the estimate. When
	// either changes, every table moves to spare for reuse.
	tables    map[uint64]*loadTable
	spare     []*loadTable
	tablesNow time.Duration
	tablesGen uint64

	// rowTplPeakW is the hour-of-week template peak per row, rebuilt from
	// the rolling row-power telemetry (power.BuildTemplate over
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
		tpl, err := power.BuildTemplate(st.RowPowerHist[row], templateSamplesPerHour, templatePercentile)
		if err != nil {
			a.rowTplPeakW[row] = -1 // under a week of history
			continue
		}
		a.rowTplPeakW[row] = tpl.Peak()
	}
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
	tab := a.table(st, estLoad)

	// Rows are single-generation (layout builds generations aisle by aisle
	// and AddRacks copies each row's spec), so the validator passes or fails
	// a row's free servers together, and a row's power and balance scores
	// are shared by all of them. Each valid row with a free server offers
	// its coolest one.
	offers := a.offers[:0]
	minProj := math.Inf(1)
	for row, r := range st.DC.Rows {
		m := r.Servers[0].GPU.Model
		peakW := rowPeakW[row] - idleWBy[m] + newPeakWBy[m]
		if peakW > r.ProvPowerW {
			continue
		}
		if aislePeakCFM[r.Aisle]-idleCFMBy[m]+newPeakCFMBy[m] > st.DC.Aisles[r.Aisle].ProvAirflowCFM {
			continue
		}
		agg := a.coolest(st, tab, row, refOutside)
		if agg.cool < 0 {
			continue
		}
		if agg.coolProj < minProj {
			minProj = agg.coolProj
		}
		offers = append(offers, rowOffer{row: row, score: rowScore(st, row, peakW/r.ProvPowerW, vm.Spec.Kind)})
	}
	a.offers = offers // keep the grown buffer for the next placement
	if len(offers) == 0 {
		return 0, false
	}

	// Temperature preference (rule 2). The "cold group" for a VM is the set
	// of servers whose projected temperature — at the VM's own predicted
	// load — is within coldBandC of the best achievable. IaaS VMs must land
	// in their cold group, but take its *warmest* member, so the very
	// coolest servers remain available for hotter customers arriving later
	// (hotter VMs project hotter everywhere, hence get the cool hardware).
	// SaaS VMs prefer the warmest server that stays safely below throttle.
	// Either way the group is the servers projecting at or below limit.
	limit := st.Spec.ThrottleTempC - tempMargin
	if vm.Spec.Kind == trace.IaaS {
		limit = minProj + coldBandC
	}

	// A row whose coolest server is in the group offers the group's warmest
	// member of the row; otherwise it degrades gracefully to its coolest.
	// Rows then compete on score, then projection (warmest within the
	// group, coolest outside it), then server ID: the order in which a scan
	// of every free server in ascending ID keeps its first strict
	// improvement. The ID must be compared explicitly because
	// oversubscribed rows end in IDs past every other row's.
	best, bestScore, bestKey := -1, 0, 0.0
	for _, o := range offers {
		agg := &tab.rows[o.row]
		// key orders projections within a score: coolest first outside the
		// group (scored 16 worse), warmest first inside it.
		srv, score, key := agg.cool, 16+o.score, agg.coolProj
		if agg.coolProj <= limit {
			a.warmest(st, tab, o.row, limit)
			srv, score, key = agg.warm, o.score, -agg.warmProj
		}
		if best == -1 || score < bestScore || score == bestScore && (key < bestKey || key == bestKey && srv < best) {
			best, bestScore, bestKey = srv, score, key
		}
	}
	return best, true
}

// rowOffer is a row that passed the validator and has a free server, with
// its power and balance score for the VM being placed.
type rowOffer struct {
	row, score int
}

// rowScore is a row's power and balance preference for a VM of the given
// kind, lower is better; peakFrac is the row's predicted post-placement peak
// as a fraction of its envelope. It stays below 16, the weight of a server
// outside the VM's temperature group.
func rowScore(st *cluster.State, row int, peakFrac float64, kind trace.VMKind) int {
	// Power preference: avoid concentrating synchronous peaks — prefer
	// rows whose predicted post-placement peak stays low (Insight #3:
	// placement relieves hotspots and smooths power spikes).
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
	iaas, saas := st.RowMix(row)
	var balScore int
	diff := saas - iaas
	if kind == trace.SaaS {
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
	return powScore*4 + balScore
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

// loadTable caches, for one load estimate, each server's hottest-GPU
// projection and per row the two free servers placement can choose: the
// coolest, and the warmest at or below a threshold. Projections depend only
// on the server, the load and the reference inlet (partGen), so they hold
// for the table's life. The row aggregates also depend on which servers are
// free, so they carry the cluster.State.RowOccEpoch they were found at.
type loadTable struct {
	load float64
	proj []float64 // per server; NaN until projected (hottest is never NaN)
	rows []rowAgg
}

// rowAgg is one row's aggregates in a loadTable. The stamps hold
// RowOccEpoch+1, so a zero rowAgg is stale.
type rowAgg struct {
	// cool is the free server with the lowest projection (the lowest ID
	// among equals), or -1 for a full row.
	coolAt   uint64
	cool     int
	coolProj float64
	// warm is the free server with the highest projection at or below the
	// threshold whose bits are warmLimit (the lowest ID among equals), or
	// -1 if there is none.
	warmAt    uint64
	warmLimit uint64
	warm      int
	warmProj  float64
}

// table returns the load table for estLoad, recycling every table once
// st.Now or the inlet-partial generation moves: a tick's placements share
// tables, and the next tick starts empty without allocating.
func (a *allocator) table(st *cluster.State, estLoad float64) *loadTable {
	if a.tables == nil || st.Now != a.tablesNow || a.partGen != a.tablesGen {
		if a.tables == nil {
			a.tables = make(map[uint64]*loadTable)
		}
		for _, tab := range a.tables {
			a.spare = append(a.spare, tab)
		}
		clear(a.tables)
		a.tablesNow, a.tablesGen = st.Now, a.partGen
	}
	key := math.Float64bits(estLoad)
	if tab, ok := a.tables[key]; ok {
		return tab
	}
	var tab *loadTable
	if n := len(a.spare); n > 0 {
		tab, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		tab = &loadTable{proj: make([]float64, len(st.DC.Servers)), rows: make([]rowAgg, len(st.DC.Rows))}
	}
	tab.load = estLoad
	for i := range tab.proj {
		tab.proj[i] = math.NaN()
	}
	clear(tab.rows)
	a.tables[key] = tab
	return tab
}

// coolest brings a row's coolest free server up to date and returns the
// row's aggregates. Rows list their servers in ascending ID, so the first
// strict improvement is the lowest ID among equals.
func (a *allocator) coolest(st *cluster.State, tab *loadTable, row int, refOutside float64) *rowAgg {
	agg := &tab.rows[row]
	if at := st.RowOccEpoch[row] + 1; agg.coolAt != at {
		agg.coolAt, agg.cool = at, -1
		for _, srv := range st.DC.Rows[row].Servers {
			if st.ServerVM[srv.ID] != -1 {
				continue
			}
			p := tab.proj[srv.ID]
			if math.IsNaN(p) {
				p = a.hottest(st, srv.ID, refOutside, tab.load)
				tab.proj[srv.ID] = p
			}
			if agg.cool == -1 || p < agg.coolProj {
				agg.cool, agg.coolProj = srv.ID, p
			}
		}
	}
	return agg
}

// warmest brings a row's warmest free server at or below limit up to date.
// It reads the projections coolest made at the same epoch.
func (a *allocator) warmest(st *cluster.State, tab *loadTable, row int, limit float64) {
	agg := &tab.rows[row]
	at, lb := st.RowOccEpoch[row]+1, math.Float64bits(limit)
	if agg.warmAt == at && agg.warmLimit == lb {
		return
	}
	agg.warmAt, agg.warmLimit, agg.warm = at, lb, -1
	for _, srv := range st.DC.Rows[row].Servers {
		if st.ServerVM[srv.ID] != -1 {
			continue
		}
		if p := tab.proj[srv.ID]; p <= limit && (agg.warm == -1 || p > agg.warmProj) {
			agg.warm, agg.warmProj = srv.ID, p
		}
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
