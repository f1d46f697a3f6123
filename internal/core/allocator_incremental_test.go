package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/trace"
)

// sweepPeaks is the validator's projection as a whole-fleet sweep: every
// server's predicted peak power and airflow, added per row and per aisle in
// ascending server-ID order. The allocator's incremental sums must match it
// bit for bit.
func sweepPeaks(st *cluster.State, prof *Profiles) (rowW, aisleCFM []float64) {
	rowW = make([]float64, len(st.DC.Rows))
	aisleCFM = make([]float64, len(st.DC.Aisles))
	for _, srv := range st.DC.Servers {
		load := 0.0
		if vmID := st.ServerVM[srv.ID]; vmID != -1 {
			load = st.EstimateVMPeakLoad(st.VMs[vmID].Spec)
		}
		rowW[srv.Row] += prof.PowerFor(srv.GPU.Model).Predict(load)
		aisleCFM[srv.Aisle] += prof.AirflowFor(srv.GPU.Model).Predict(load)
	}
	return rowW, aisleCFM
}

// placeCandidate is a free server the validator admits, with its
// hottest-GPU projection at the VM's load.
type placeCandidate struct {
	server   int
	predTemp float64
	row      int
	model    layout.GPUModel
}

// sweepCandidates recomputes, from scratch, the validator's floored row
// projections and every free server it admits with its hottest-GPU
// projection, in ascending server ID.
func sweepCandidates(st *cluster.State, prof *Profiles, tplPeakW []float64, vm *cluster.VM) (rowPeakW, aislePeakCFM []float64, cands []placeCandidate) {
	estLoad := st.EstimateVMPeakLoad(vm.Spec)
	rowPeakW, aislePeakCFM = sweepPeaks(st, prof)
	for row := range rowPeakW {
		if tpl := tplPeakW[row]; tpl > rowPeakW[row] {
			rowPeakW[row] = tpl
		}
	}
	refOutside := st.OutsideC + 4
	if refOutside < 30 {
		refOutside = 30
	}
	for id, occupant := range st.ServerVM {
		if occupant != -1 {
			continue
		}
		srv := st.DC.Servers[id]
		pw, af := prof.PowerFor(srv.GPU.Model), prof.AirflowFor(srv.GPU.Model)
		if rowPeakW[srv.Row]-pw.Predict(0)+pw.Predict(estLoad) > st.DC.Rows[srv.Row].ProvPowerW {
			continue
		}
		if aislePeakCFM[srv.Aisle]-af.Predict(0)+af.Predict(estLoad) > st.DC.Aisles[srv.Aisle].ProvAirflowCFM {
			continue
		}
		inlet := prof.Inlet.Predict(id, refOutside, 0.8)
		temp := 0.0
		for g := 0; g < st.GPUsPerServer; g++ {
			if t := prof.GPUTemp.Predict(id, g, inlet, estLoad); t > temp {
				temp = t
			}
		}
		cands = append(cands, placeCandidate{server: id, predTemp: temp, row: srv.Row, model: srv.GPU.Model})
	}
	return rowPeakW, aislePeakCFM, cands
}

// sweepChoose is the allocator's choice as a scan: it scores every
// candidate by the three rules, in ascending server ID, and keeps the first
// strict improvement.
func sweepChoose(st *cluster.State, prof *Profiles, rowPeakW []float64, cands []placeCandidate, vm *cluster.VM) (int, bool) {
	if len(cands) == 0 {
		return 0, false
	}
	estLoad := st.EstimateVMPeakLoad(vm.Spec)
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
		pw := prof.PowerFor(c.model)
		peakFrac := (rowPeakW[c.row] - pw.Predict(0) + pw.Predict(estLoad)) / st.DC.Rows[c.row].ProvPowerW
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
		iaas, saas := st.RowMix(c.row)
		var balScore int
		diff := saas - iaas
		if vm.Spec.Kind == trace.SaaS {
			diff = iaas - saas
		}
		switch {
		case diff > 1:
			balScore = 0
		case diff >= -1:
			balScore = 1
		default:
			balScore = 2
		}
		score := tempScore*16 + powScore*4 + balScore
		better := score < bestScore
		if score == bestScore {
			if tempScore == 0 {
				better = c.predTemp > bestTemp
			} else {
				better = c.predTemp < bestTemp
			}
		}
		if better {
			best, bestScore, bestTemp = c.server, score, c.predTemp
		}
	}
	return best, best != -1
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// tieServers gives every server server 0's inlet surface and GPU weights,
// so all free servers project alike and placements tie. The GPUs first run
// 10 °C hotter: a VM at full load then projects above the SaaS throttle
// margin and takes a row's coolest server, while lighter ones take the
// warmest in their group, so ties reach both row aggregates.
func tieServers(prof *Profiles) {
	for id := range prof.Inlet.PerServer {
		prof.Inlet.PerServer[id] = prof.Inlet.PerServer[0]
	}
	w, n := prof.GPUTemp.Weights, prof.GPUTemp.GPUsPerServer*3
	for i := 0; i < n; i += 3 {
		w[i] += 10
	}
	for i := n; i < len(w); i += n {
		copy(w[i:i+n], w[:n])
	}
}

// TestAllocatorIncrementalMatchesSweep drives random place, bind, Remove,
// peak-observation, outside-temperature, row-telemetry and clock steps
// against one allocator. Every placement must choose the server (and ok) of
// a from-scratch sweep that scores each free server in ascending ID, and
// the allocator's row and aisle projections must match the sweep's by
// math.Float64bits. Bursts place several VMs with one load estimate inside
// a tick, as a fleet's first tick does. The oversubscribed fleets have rows
// whose extra racks take IDs past every other row's, so row order and ID
// order disagree; on the tied fleet every server projects alike, which only
// an explicit server-ID tie-break gets right. The mixed fleet has rows of
// two generations.
func TestAllocatorIncrementalMatchesSweep(t *testing.T) {
	fleets := []struct {
		name    string
		cfg     layout.Config
		oversub float64
		hetero  bool
		tied    bool
	}{
		{name: "small", cfg: layout.SmallConfig()},
		{name: "oversubscribed", cfg: layout.SmallConfig(), oversub: 0.2},
		{name: "tied", cfg: layout.SmallConfig(), oversub: 0.2, tied: true},
		{name: "mixed", cfg: func() layout.Config {
			c := layout.SmallConfig()
			c.Aisles, c.MixGPU, c.MixFraction = 2, layout.H100, 0.5
			return c
		}(), hetero: true},
	}
	for _, fl := range fleets {
		t.Run(fl.name, func(t *testing.T) {
			dc, err := layout.New(fl.cfg)
			if err != nil {
				t.Fatal(err)
			}
			dc.AddRacks(fl.oversub)
			if dc.Heterogeneous() != fl.hetero {
				t.Fatalf("fleet heterogeneous = %v, want %v", dc.Heterogeneous(), fl.hetero)
			}
			w, err := trace.Generate(trace.WorkloadConfig{
				Servers: len(dc.Servers), SaaSFraction: 0.5,
				Duration: 24 * time.Hour, Endpoints: 3, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := cluster.NewState(dc, w)
			st.OutsideC = 20
			prof, err := BuildProfiles(dc)
			if err != nil {
				t.Fatal(err)
			}
			if fl.tied {
				tieServers(prof)
			}
			alloc := &allocator{prof: prof}
			tpl := &allocator{prof: prof} // builds the oracle's row templates
			rng := rand.New(rand.NewPCG(5, 9))
			places, placed := 0, 0

			check := func(step string, vm *cluster.VM) (int, bool) {
				t.Helper()
				srv, ok := alloc.place(st, vm)
				tpl.refreshRowTemplates(st)
				rowPeakW, aislePeakCFM, cands := sweepCandidates(st, prof, tpl.rowTplPeakW, vm)
				rowW, _ := sweepPeaks(st, prof)
				if i := sameBits(alloc.rowSumW, rowW); i >= 0 {
					t.Fatalf("%s: row %d sum %v, sweep %v", step, i, alloc.rowSumW[i], rowW[i])
				}
				if i := sameBits(alloc.rowPeakW, rowPeakW); i >= 0 {
					t.Fatalf("%s: row %d floored peak %v, sweep %v", step, i, alloc.rowPeakW[i], rowPeakW[i])
				}
				if i := sameBits(alloc.aisleSumCFM, aislePeakCFM); i >= 0 {
					t.Fatalf("%s: aisle %d sum %v, sweep %v", step, i, alloc.aisleSumCFM[i], aislePeakCFM[i])
				}
				if wsrv, wok := sweepChoose(st, prof, rowPeakW, cands, vm); srv != wsrv || ok != wok {
					t.Fatalf("%s %d: chose server %d (ok %v), the sweep %d (ok %v)", step, places, srv, ok, wsrv, wok)
				}
				places++
				return srv, ok
			}
			bind := func(vm *cluster.VM, srv int, ok bool) {
				if !ok {
					return
				}
				if err := st.Place(vm.Spec.ID, srv); err != nil {
					t.Fatal(err)
				}
				placed++
			}
			nextVM := func(kind trace.VMKind) *cluster.VM {
				for _, vm := range st.VMs {
					if vm.Server == -1 && vm.Spec.Kind == kind {
						return vm
					}
				}
				return nil
			}
			randomKind := func() trace.VMKind {
				if rng.IntN(2) == 0 {
					return trace.SaaS
				}
				return trace.IaaS
			}

			// The same VM on both sides of the reference-temperature clamp
			// (OutsideC+4 vs 30): the memoized inlet partials and the load
			// tables built on them must follow the outside temperature.
			probe := nextVM(trace.IaaS)
			for _, outside := range []float64{20, 26, 26.5, 35, 20} {
				st.OutsideC = outside
				check("clamp probe", probe)
			}

			for step := 0; step < 600; step++ {
				if step == 300 {
					// A week of row telemetry: the template floor engages,
					// and row 0 closes at its envelope. On the mixed fleet
					// the other rows sit between the envelope less a
					// full-load VM's projection on A100 and on H100, so
					// the row's own generation decides whether it admits
					// heavy VMs.
					week := int(7 * 24 * time.Hour / cluster.HistoryRes)
					delta := func(m layout.GPUModel) float64 {
						return prof.PowerFor(m).Predict(1) - prof.PowerFor(m).Predict(0)
					}
					for row, r := range st.DC.Rows {
						v := r.ProvPowerW * 0.5
						switch {
						case row == 0:
							v = r.ProvPowerW
						case fl.hetero:
							v = r.ProvPowerW - (delta(layout.A100)+delta(layout.H100))/2
						}
						for i := 0; i < week; i++ {
							st.RowPowerHist[row] = append(st.RowPowerHist[row], v)
						}
					}
					st.Now += templateRefresh
					st.SeedHistory(map[int]float64{0: 0.3}, map[int]float64{0: 500})
				}
				switch op := rng.IntN(12); {
				case op < 3: // place and bind
					if vm := nextVM(randomKind()); vm != nil {
						srv, ok := check("place", vm)
						bind(vm, srv, ok)
					}
				case op < 5: // a burst sharing one load estimate
					first := nextVM(randomKind())
					if first == nil {
						continue
					}
					same := func(vm *cluster.VM) bool {
						if vm.Spec.Kind == trace.IaaS {
							return vm.Spec.Customer == first.Spec.Customer
						}
						return vm.Spec.Endpoint == first.Spec.Endpoint
					}
					burst := 0
					for _, vm := range st.VMs[first.Spec.ID:] {
						if burst == 4 {
							break
						}
						if vm.Server == -1 && vm.Spec.Kind == first.Spec.Kind && same(vm) {
							srv, ok := check("burst", vm)
							bind(vm, srv, ok)
							burst++
						}
					}
				case op < 6: // place without binding
					if vm := nextVM(trace.SaaS); vm != nil {
						check("probe", vm)
					}
				case op < 8: // departure
					var bound []int
					for _, vm := range st.VMs {
						if vm.Server >= 0 {
							bound = append(bound, vm.Spec.ID)
						}
					}
					if len(bound) > 0 {
						st.Remove(bound[rng.IntN(len(bound))])
					}
				case op < 9: // a new customer peak
					st.ObserveCustomerLoad(st.VMs[rng.IntN(len(st.VMs))].Spec.Customer, rng.Float64())
				case op < 10: // a new endpoint peak
					st.ObserveEndpointDemand(rng.IntN(len(st.Work.Endpoints)), rng.Float64()*2000)
				case op < 11: // weather moves across the reference clamp
					st.OutsideC = 18 + rng.Float64()*16
				default: // the next tick
					st.Now += time.Minute
				}
			}
			if places < 300 || placed < 150 {
				t.Fatalf("only %d placements checked, %d bound", places, placed)
			}
		})
	}
}

// TestPlaceAllocFree pins the allocator's steady state: once its caches are
// built, a placement into a cluster with one changed row allocates nothing,
// within a tick and in the first placement of a new tick, whose load tables
// are recycled.
func TestPlaceAllocFree(t *testing.T) {
	st, prof := newComponentState(t)
	alloc := &allocator{prof: prof}
	vm := findVM(st, trace.IaaS)
	placeBindRemove := func() {
		srv, ok := alloc.place(st, vm)
		if !ok {
			t.Fatal("placement failed on an empty cluster")
		}
		if err := st.Place(vm.Spec.ID, srv); err != nil {
			t.Fatal(err)
		}
		st.Remove(vm.Spec.ID)
	}
	placeBindRemove()
	if n := testing.AllocsPerRun(50, placeBindRemove); n != 0 {
		t.Errorf("place+bind+remove allocates %.1f times per call, want 0", n)
	}
	nextTick := func() {
		st.Now += st.Tick
		placeBindRemove()
	}
	if n := testing.AllocsPerRun(50, nextTick); n != 0 {
		t.Errorf("place+bind+remove in a new tick allocates %.1f times per call, want 0", n)
	}
}
