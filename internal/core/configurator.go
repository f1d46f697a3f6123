package core

import (
	"math"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
)

// configurator implements the TAPAS Instance Configurator (§4.3): per
// instance it derives the allowable GPU power fraction (from the learned
// thermal model), the allowable server power (from row power and aisle
// airflow pressure), and a quality floor, then picks the configuration from
// the offline LLM profile that maximizes goodput within those limits —
// preferring the lowest-power configuration that still covers live demand,
// and treating reload-requiring changes (TP, model size, quantization) as a
// rate-limited last resort.
type configurator struct {
	prof        *Profiles
	lastReload  map[int]time.Duration // VM id → sim time of last reload
	rowPressure []int                 // consecutive ticks a row sat above target

	// Per-tick scratch, reused across configure calls so the steady-state
	// control loop does not allocate.
	rowScale   []float64
	aisleScale []float64
	aisleFairW []float64

	// fullPowerInlet is each server's thermal.GPUTempModel.FullPowerInlet
	// under the configurator's temperature limit, filled by the run's first
	// configure pass: at or below it the thermal ceiling is exactly 1.
	fullPowerInlet []float64
}

const (
	// budgetTarget keeps rows/aisles a bit under their limits so demand
	// noise does not tip them over.
	budgetTarget = 0.96
	// demandMargin is the goodput headroom kept above live demand. Goodput
	// is already evaluated at 80% occupancy, so a thin extra margin keeps
	// SLOs safe while letting the configurator shed power at the shoulders
	// of the diurnal curve.
	demandMargin = 1.10
	// reloadCooldown rate-limits model reloads per instance.
	reloadCooldown = 10 * time.Minute
	// emergencyQualityFloor is the lowest acceptable relative quality when
	// shedding load during emergencies (§5.4 reports ≤12% average impact).
	emergencyQualityFloor = 0.60
	// configTempMargin keeps predicted GPU temperature below throttle.
	configTempMargin = 3.0
)

func newConfigurator(prof *Profiles) *configurator {
	return &configurator{prof: prof, lastReload: make(map[int]time.Duration)}
}

// configure re-decides the configuration of every placed SaaS instance that
// is not mid-reload. It walks the endpoint lists cluster.State keeps, which
// hold exactly the placed SaaS VMs, so departed, unarrived and IaaS VMs cost
// nothing; pick does the scan.
func (c *configurator) configure(st *cluster.State) {
	emergency := st.Budget.Multiplier() < 1 || st.AirflowLimitFrac < 1
	qualityFloor := 1.0
	if emergency {
		qualityFloor = emergencyQualityFloor
	}

	// Row and aisle pressure: the power scale each server in them must
	// apply to bring the aggregate back under target.
	limitC := st.Spec.ThrottleTempC - configTempMargin
	if c.rowPressure == nil {
		c.rowPressure = make([]int, len(st.DC.Rows))
		c.rowScale = make([]float64, len(st.DC.Rows))
		c.aisleScale = make([]float64, len(st.DC.Aisles))
		c.aisleFairW = make([]float64, len(st.DC.Aisles))
		c.fullPowerInlet = make([]float64, len(st.DC.Servers))
		for id := range c.fullPowerInlet {
			c.fullPowerInlet[id] = c.prof.GPUTemp.FullPowerInlet(id, limitC)
		}
	}
	rowScale := c.rowScale
	for row := range rowScale {
		rowScale[row] = 1
		target := st.Budget.RowLimitW(row) * budgetTarget
		if draw := st.RowPowerW[row]; draw > target {
			rowScale[row] = target / draw
			c.rowPressure[row]++
		} else {
			c.rowPressure[row] = 0
		}
	}
	aisleScale := c.aisleScale
	aisleFairW := c.aisleFairW
	for a := range aisleScale {
		aisleScale[a] = 1
		target := st.AisleLimitCFM(a) * budgetTarget
		if demand := st.AisleDemandCFM[a]; demand > target {
			aisleScale[a] = target / demand
		}
		// The server power that, fleet-wide in this aisle, would keep fan
		// airflow at the provisioned target — the aisle analogue of the
		// row fair share. Aisles are homogeneous per hardware generation,
		// so the aisle's own airflow/power fits apply throughout it.
		servers := st.DC.Aisles[a].Servers()
		model := servers[0].GPU.Model
		af := c.prof.AirflowFor(model)
		idleW := c.prof.PowerFor(model).Predict(0)
		n := float64(len(servers))
		perServerCFM := target / n
		heatFrac := (perServerCFM - af.IdleCFM) / (af.MaxCFM - af.IdleCFM)
		if heatFrac < 0 {
			heatFrac = 0
		}
		aisleFairW[a] = idleW + heatFrac*(servers[0].GPU.ServerTDPW-idleW)
	}

	dc := st.DC
	tickSecs := st.Tick.Seconds()
	tickNo := int(st.Now / st.Tick)
	// Each VM's decision reads only its own instance and the telemetry
	// above, so the endpoint-major visiting order changes no result.
	for ep := range st.Work.Endpoints {
		for _, vm := range st.EndpointInstances(ep) {
			in := vm.Instance
			if in.Reloading() {
				continue
			}
			id := vm.Server
			row, aisle := dc.ServerRow[id], dc.ServerAisle[id]
			scale := rowScale[row]
			if s := aisleScale[aisle]; s < scale {
				scale = s
			}
			// The per-iteration controller caches its decisions (§4.5); absent
			// pressure or backlog, each instance is re-evaluated on a staggered
			// cadence.
			if scale >= 1 && !emergency && in.BacklogSecs <= 3 && (tickNo+vm.Spec.ID)%5 != 0 {
				continue
			}

			// Server power ceiling: unconstrained while the row/aisle have
			// slack; proportional squeeze otherwise — but never below the
			// server's fair share of the row target, or already-frugal
			// instances would ratchet down and never recover.
			maxServerW := st.ServerGPUSpec(id).ServerTDPW
			if scale < 1 {
				maxServerW = st.ServerPowerW[id] * scale
				fairShare := st.Budget.RowLimitW(int(row)) * budgetTarget / float64(len(dc.Rows[row].Servers))
				if af := aisleFairW[aisle]; af < fairShare {
					fairShare = af
				}
				if maxServerW < fairShare {
					maxServerW = fairShare
				}
			}

			// Thermal ceiling: hottest GPU of the server binds the allowable
			// power fraction at the current inlet (learned model inversion),
			// exactly 1 at or below the server's full-power inlet.
			maxFrac := 1.0
			if inlet := st.ServerInletC[id]; !(inlet <= c.fullPowerInlet[id]) {
				maxFrac = c.prof.GPUTemp.ServerHeadroomPowerFrac(id, inlet, limitC)
			}

			required := in.TickEnqueued() / tickSecs * demandMargin
			// TickEnqueued measures granted demand, which shrinks when the
			// instance is downsized — a circular signal. Backlog is the
			// corrective: while the queue is not draining, demand goodput no
			// entry can satisfy, which makes pick fall through to the highest
			// goodput available within limits.
			if in.BacklogSecs > 3 {
				required = math.Inf(1)
			}
			// Reload-class changes (TP, model size, quantization) are the last
			// resort: only under persistent pressure or an emergency, and
			// rate-limited per instance. Otherwise the search is restricted to
			// free changes (frequency, batch).
			reloadOK := emergency || c.rowPressure[row] >= 2
			if reloadOK {
				if last, seen := c.lastReload[vm.Spec.ID]; seen && st.Now-last < reloadCooldown {
					reloadOK = false
				}
			}
			entry := c.pick(st.ProfileFor(id), in.Config, maxFrac, maxServerW, qualityFloor, required, reloadOK)
			if entry == nil || entry.Config == in.Config {
				continue
			}
			if llm.ReconfigTime(in.Config, entry.Config) > 0 {
				c.lastReload[vm.Spec.ID] = st.Now
			}
			in.Reconfigure(entry)
		}
	}
}

// pick selects the operating point: among profile entries satisfying the
// thermal/power limits, quality floor, and (when reloads are gated) the
// no-reload restriction, the lowest-average-power entry whose goodput covers
// required demand; when none covers it, the highest-goodput entry; nil when
// no entry is feasible. Entries are visited and returned through pointers
// into the shared profile: ProfileEntry is large enough that copying it per
// iteration dominated the configurator's profile.
//
// Both scans visit llm.Profile.Candidates: the full-quality entries under a
// quality floor of 1 (the non-emergency case), and, when reloads are gated,
// only cur's reload class — at most 20 entries, every one reachable without
// a reload, so a gated pick never calls llm.ReconfigTime and its
// cheapest-reconfiguration tie-break (0 against 0) never decides.
func (c *configurator) pick(p *llm.Profile, cur llm.Config, maxFrac, maxServerW, qualityFloor, required float64, reloadOK bool) *llm.ProfileEntry {
	feasible := func(e *llm.ProfileEntry) bool {
		return e.Goodput > 0 && e.Quality >= qualityFloor &&
			e.PeakGPUPowerFrac <= maxFrac && e.PeakServerPowerW <= maxServerW
	}
	idx := p.Candidates(cur, qualityFloor, !reloadOK)
	var best *llm.ProfileEntry
	for _, i := range idx { // sorted by goodput descending
		e := &p.Entries[i]
		if e.Goodput < required {
			break // all later entries have even less goodput
		}
		if !feasible(e) {
			continue
		}
		// Among feasible entries prefer the highest quality — smaller
		// models are used "only when necessary" (§5.4) — then the lowest
		// average power, then the cheapest reconfiguration.
		if best == nil || e.Quality > best.Quality ||
			(e.Quality == best.Quality && (e.AvgServerPowerW < best.AvgServerPowerW ||
				(reloadOK && e.AvgServerPowerW == best.AvgServerPowerW && llm.ReconfigTime(cur, e.Config) < llm.ReconfigTime(cur, best.Config)))) {
			best = e
		}
	}
	if best != nil {
		return best
	}
	// Demand cannot be covered within limits: serve as much as possible
	// with the highest-goodput feasible entry.
	for _, i := range idx {
		if e := &p.Entries[i]; feasible(e) {
			return e
		}
	}
	return nil
}
