package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
)

// oracleConfigure is configurator.configure as it stood before the pass
// walked the endpoint lists and the gated scan its reload class: it walks
// every VM of the workload and scans with the pre-merge oraclePick. It also
// predates the server index, the full-power inlet and the rates profile
// entries carry: it reads each server's struct, inverts every GPU's thermal
// model and re-derives the instance's rates from its spec.
func oracleConfigure(c *configurator, st *cluster.State) {
	emergency := st.Budget.Multiplier() < 1 || st.AirflowLimitFrac < 1
	qualityFloor := 1.0
	if emergency {
		qualityFloor = emergencyQualityFloor
	}

	// Row and aisle pressure: the power scale each server in them must
	// apply to bring the aggregate back under target.
	if c.rowPressure == nil {
		c.rowPressure = make([]int, len(st.DC.Rows))
		c.rowScale = make([]float64, len(st.DC.Rows))
		c.aisleScale = make([]float64, len(st.DC.Aisles))
		c.aisleFairW = make([]float64, len(st.DC.Aisles))
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

	tickSecs := st.Tick.Seconds()
	tickNo := int(st.Now / st.Tick)
	for _, vm := range st.VMs {
		if vm.Spec.Kind != trace.SaaS || vm.Server < 0 || vm.Instance == nil {
			continue
		}
		in := vm.Instance
		if in.Reloading() {
			continue
		}
		srv := st.DC.Servers[vm.Server]
		scale := rowScale[srv.Row]
		if s := aisleScale[srv.Aisle]; s < scale {
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
		maxServerW := srv.GPU.ServerTDPW
		if scale < 1 {
			maxServerW = st.ServerPowerW[vm.Server] * scale
			fairShare := st.Budget.RowLimitW(srv.Row) * budgetTarget / float64(len(st.DC.Rows[srv.Row].Servers))
			if af := aisleFairW[srv.Aisle]; af < fairShare {
				fairShare = af
			}
			if maxServerW < fairShare {
				maxServerW = fairShare
			}
		}

		// Thermal ceiling: hottest GPU of the server binds the allowable
		// power fraction at the current inlet (learned model inversion).
		inlet := st.ServerInletC[vm.Server]
		maxFrac := 1.0
		for g := 0; g < st.GPUsPerServer; g++ {
			h := c.prof.GPUTemp.HeadroomPowerFrac(vm.Server, g, inlet, st.Spec.ThrottleTempC-configTempMargin)
			if h < maxFrac {
				maxFrac = h
			}
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
		reloadOK := emergency || c.rowPressure[srv.Row] >= 2
		if reloadOK {
			if last, seen := c.lastReload[vm.Spec.ID]; seen && st.Now-last < reloadCooldown {
				reloadOK = false
			}
		}
		entry, ok := oraclePick(st.ProfileFor(vm.Server), in.Config, maxFrac, maxServerW, qualityFloor, required, reloadOK)
		if !ok || entry.Config == in.Config {
			continue
		}
		if llm.ReconfigTime(in.Config, entry.Config) > 0 {
			c.lastReload[vm.Spec.ID] = st.Now
		}
		oracleReconfigure(in, entry)
	}
}

// oracleReconfigure is Reconfigure as it stood before profile entries
// carried their rates: it re-derives every cached rate from the instance's
// spec, which Rehost onto the instance's own spec does.
func oracleReconfigure(in *llm.Instance, e llm.ProfileEntry) {
	in.Reconfigure(&e)
	in.Rehost(in.Spec)
}

// cachedRates are the names of the rates an instance caches, which the
// package does not export.
var cachedRates = []string{"prefillRate", "decodeRate", "prefillFrac", "decodeFrac", "gpuIdleFrac", "slackFull", "decodeW", "fullLoadW"}

// rateDiff compares the cached rates of two instances by float bits and
// names the first that differs, or returns "".
func rateDiff(got, want *llm.Instance) string {
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for _, name := range cachedRates {
		a, b := g.FieldByName(name).Float(), w.FieldByName(name).Float()
		if math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Sprintf("%s %v, want %v", name, a, b)
		}
	}
	return ""
}

// reloadLeft reads an instance's remaining reload time, which the package
// does not export.
func reloadLeft(in *llm.Instance) time.Duration {
	return time.Duration(reflect.ValueOf(in).Elem().FieldByName("reloadLeft").Int())
}

// perturbFleet advances every copy of a fleet by one tick with the same
// random draws: VM departures and arrivals, power and cooling emergencies,
// row power and aisle airflow on both sides of the configurator's target,
// server power and inlet temperature, and per instance a possible Step
// (which spends reload time), new demand and a backlog on both sides of the
// configurator's 3-s threshold.
func perturbFleet(rng *rand.Rand, sts []*cluster.State) {
	ref := sts[0]
	each := func(f func(st *cluster.State)) {
		for _, st := range sts {
			f(st)
		}
	}
	now := ref.Now + ref.Tick
	each(func(st *cluster.State) { st.Now = now })
	var free []int
	for id, vm := range ref.ServerVM {
		if vm == -1 {
			free = append(free, id)
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for id, vm := range ref.VMs {
		switch {
		case vm.Server >= 0 && rng.IntN(30) == 0:
			each(func(st *cluster.State) { st.Remove(id) })
		case vm.Server < 0 && len(free) > 0 && rng.IntN(6) == 0:
			srv := free[0]
			free = free[1:]
			each(func(st *cluster.State) {
				if err := st.Place(id, srv); err != nil {
					panic(err)
				}
			})
		}
	}
	mult, airflow := 1.0, 1.0
	switch rng.IntN(10) {
	case 0:
		mult = 0.8
	case 1:
		airflow = 0.85
	}
	each(func(st *cluster.State) { st.Budget.SetEmergency(mult); st.AirflowLimitFrac = airflow })
	for row := range ref.RowPowerW {
		u := 0.6 + 0.5*rng.Float64()
		each(func(st *cluster.State) { st.RowPowerW[row] = st.Budget.RowLimitW(row) * u })
	}
	for a := range ref.AisleDemandCFM {
		u := 0.6 + 0.5*rng.Float64()
		each(func(st *cluster.State) { st.AisleDemandCFM[a] = st.AisleLimitCFM(a) * u })
	}
	for id := range ref.ServerPowerW {
		pw, inlet := 0.3+0.7*rng.Float64(), 18+17*rng.Float64()
		each(func(st *cluster.State) {
			st.ServerPowerW[id] = st.DC.Servers[id].GPU.ServerTDPW * pw
			st.ServerInletC[id] = inlet
		})
	}
	for id, vm := range ref.VMs {
		if vm.Instance == nil {
			continue
		}
		step := rng.IntN(3) == 0
		prompt, backlog := rng.Float64()*4e5, rng.Float64()*6
		each(func(st *cluster.State) {
			in := st.VMs[id].Instance
			if step {
				in.Step(st.Tick)
			}
			in.EnqueueBulk(prompt, prompt/4)
			in.BacklogSecs = backlog
		})
	}
}

// TestConfigureMatchesOracle steps two copies of a random mixed A100/H100
// fleet through the same ticks, one configured by configure and one by the
// oracle, and compares every instance's configuration, remaining reload
// time and cached rates, the reload log and the row pressure after each
// pass. Counters check that the ticks reach emergencies, row pressure,
// ungated reloads, free changes, instances skipped mid-reload and inlets on
// both sides of the full-power inlet.
func TestConfigureMatchesOracle(t *testing.T) {
	f := newOracleFleet(t)
	prof, err := ProfilesFor(f.dc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(61, 67))
	seen := map[string]int{}
	for trial := 0; trial < 12; trial++ {
		sts := make([]*cluster.State, 2)
		for k := range sts {
			sts[k] = cluster.NewState(f.dc, f.w)
			sts[k].Tick = []time.Duration{time.Minute, 5 * time.Second}[trial%2]
		}
		got, want := newConfigurator(prof), newConfigurator(prof)
		before := map[int]llm.Config{}
		for tick := 1; tick <= 120; tick++ {
			perturbFleet(rng, sts)
			clear(before)
			for id, vm := range sts[0].VMs {
				if in := vm.Instance; in != nil {
					before[id] = in.Config
					if in.Reloading() {
						seen["reloading instance"]++
					}
					if sts[0].DC.Servers[vm.Server].GPU.Model == layout.H100 {
						seen["H100 instance"]++
					}
				}
			}
			if sts[0].Budget.Multiplier() < 1 || sts[0].AirflowLimitFrac < 1 {
				seen["emergency"]++
			}
			got.configure(sts[0])
			oracleConfigure(want, sts[1])
			for id, vm := range sts[0].VMs {
				a, b := vm.Instance, sts[1].VMs[id].Instance
				if (a == nil) != (b == nil) {
					t.Fatalf("trial %d tick %d: VM %d placed differently", trial, tick, id)
				}
				if a == nil {
					continue
				}
				if a.Config != b.Config || reloadLeft(a) != reloadLeft(b) {
					t.Fatalf("trial %d tick %d: VM %d at %v with %v to reload, oracle %v with %v",
						trial, tick, id, a.Config, reloadLeft(a), b.Config, reloadLeft(b))
				}
				if d := rateDiff(a, b); d != "" {
					t.Fatalf("trial %d tick %d: VM %d at %v caches %s", trial, tick, id, a.Config, d)
				}
				if sts[0].ServerInletC[vm.Server] <= got.fullPowerInlet[vm.Server] {
					seen["inlet at or below full-power inlet"]++
				} else {
					seen["inlet above full-power inlet"]++
				}
				switch cfg := before[id]; {
				case a.Config == cfg:
				case llm.ReconfigTime(cfg, a.Config) > 0:
					seen["reload"]++
				default:
					seen["free change"]++
				}
			}
			if !maps.Equal(got.lastReload, want.lastReload) || !slices.Equal(got.rowPressure, want.rowPressure) {
				t.Fatalf("trial %d tick %d: reload log %v and row pressure %v, oracle %v and %v",
					trial, tick, got.lastReload, got.rowPressure, want.lastReload, want.rowPressure)
			}
			if slices.ContainsFunc(got.rowScale, func(s float64) bool { return s < 1 }) {
				seen["row pressure"]++
			}
		}
	}
	for _, k := range []string{"emergency", "row pressure", "reload", "free change", "reloading instance", "H100 instance",
		"inlet at or below full-power inlet", "inlet above full-power inlet"} {
		if seen[k] == 0 {
			t.Errorf("no random tick reached %q", k)
		}
	}
	t.Logf("case counts: %v", seen)
}
