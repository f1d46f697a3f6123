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

// sweepCandidates recomputes, from scratch, the validator's floored row
// projections and every surviving candidate with its hottest-GPU
// projection, in the order the allocator visits them.
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
	for _, id := range st.FreeServers() {
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

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAllocatorIncrementalMatchesSweep drives random place, bind, Remove,
// peak-observation, outside-temperature and row-telemetry steps against one
// allocator and checks every placement against a from-scratch sweep: the
// row and aisle projections and every candidate's hottest-GPU projection
// agree by math.Float64bits. The scoring rules below the validator are
// unchanged, so at the clamp probes and every tenth step the chosen server
// is also checked against a fresh allocator, whose caches start empty. The
// oversubscribed fleet is where aisle sums in Aisle.Servers order would
// differ from ascending-ID order.
func TestAllocatorIncrementalMatchesSweep(t *testing.T) {
	fleets := []struct {
		name    string
		cfg     layout.Config
		oversub float64
		hetero  bool
	}{
		{name: "small", cfg: layout.SmallConfig()},
		{name: "oversubscribed", cfg: layout.SmallConfig(), oversub: 0.2},
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
			alloc := &allocator{prof: prof}
			tpl := &allocator{prof: prof} // builds the oracle's row templates
			rng := rand.New(rand.NewPCG(5, 9))
			places := 0

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
				if len(alloc.cands) != len(cands) {
					t.Fatalf("%s: %d candidates, sweep %d", step, len(alloc.cands), len(cands))
				}
				for i, c := range cands {
					got := alloc.cands[i]
					if got.server != c.server || math.Float64bits(got.predTemp) != math.Float64bits(c.predTemp) {
						t.Fatalf("%s: candidate %d = server %d at %v °C, sweep server %d at %v °C",
							step, i, got.server, got.predTemp, c.server, c.predTemp)
					}
				}
				if ok != (len(cands) > 0) {
					t.Fatalf("%s: place ok = %v with %d sweep candidates", step, ok, len(cands))
				}
				places++
				return srv, ok
			}
			checkChoice := func(step string, vm *cluster.VM, srv int, ok bool) {
				t.Helper()
				fresh := &allocator{prof: prof}
				if fsrv, fok := fresh.place(st, vm); fsrv != srv || fok != ok {
					t.Fatalf("%s: chose server %d (ok %v), a fresh allocator %d (ok %v)", step, srv, ok, fsrv, fok)
				}
			}
			nextVM := func(kind trace.VMKind) *cluster.VM {
				for _, vm := range st.VMs {
					if vm.Server == -1 && vm.Spec.Kind == kind {
						return vm
					}
				}
				return nil
			}

			// The same VM on both sides of the reference-temperature clamp
			// (OutsideC+4 vs 30): the memoized inlet partials must follow
			// the outside temperature.
			probe := nextVM(trace.IaaS)
			for _, outside := range []float64{20, 26, 26.5, 35, 20} {
				st.OutsideC = outside
				srv, ok := check("clamp probe", probe)
				checkChoice("clamp probe", probe, srv, ok)
			}

			for step := 0; step < 400; step++ {
				if step == 200 {
					// A week of row telemetry: the template floor engages,
					// and row 0 closes at its envelope.
					week := int(7 * 24 * time.Hour / cluster.HistoryRes)
					for row, r := range st.DC.Rows {
						v := r.ProvPowerW * 0.5
						if row == 0 {
							v = r.ProvPowerW
						}
						for i := 0; i < week; i++ {
							st.RowPowerHist[row].Push(v)
						}
					}
					st.Now += templateRefresh
					st.SeedHistory(map[int]float64{0: 0.3}, map[int]float64{0: 500})
				}
				switch op := rng.IntN(10); {
				case op < 4: // place and bind
					kind := trace.IaaS
					if rng.IntN(2) == 0 {
						kind = trace.SaaS
					}
					vm := nextVM(kind)
					if vm == nil {
						continue
					}
					srv, ok := check("place", vm)
					if step%10 == 0 {
						checkChoice("place", vm, srv, ok)
					}
					if ok {
						if err := st.Place(vm.Spec.ID, srv); err != nil {
							t.Fatal(err)
						}
					}
				case op < 5: // place without binding
					if vm := nextVM(trace.SaaS); vm != nil {
						check("probe", vm)
					}
				case op < 7: // departure
					var placed []int
					for _, vm := range st.VMs {
						if vm.Server >= 0 {
							placed = append(placed, vm.Spec.ID)
						}
					}
					if len(placed) > 0 {
						st.Remove(placed[rng.IntN(len(placed))])
					}
				case op < 8: // a new customer peak
					st.ObserveCustomerLoad(st.VMs[rng.IntN(len(st.VMs))].Spec.Customer, rng.Float64())
				case op < 9: // a new endpoint peak
					st.ObserveEndpointDemand(rng.IntN(len(st.Work.Endpoints)), rng.Float64()*2000)
				default: // weather moves across the reference clamp
					st.OutsideC = 18 + rng.Float64()*16
				}
			}
			if places < 150 {
				t.Fatalf("only %d placements checked", places)
			}
		})
	}
}

// TestPlaceAllocFree pins the allocator's steady state: once its caches are
// built, a placement into a cluster with one changed row allocates nothing.
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
}
