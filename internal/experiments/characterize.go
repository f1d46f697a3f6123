package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/power"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/thermal"
	"github.com/tapas-sim/tapas/internal/trace"
)

// Table1 reproduces the direction table: the impact of each configuration
// knob on performance, temperature, power and quality.
func Table1(p Params) (*Report, error) {
	r := &Report{ID: "table1", Title: "Impact of configuration parameters"}
	spec := layout.Spec(layout.A100)
	w := llm.DefaultWorkload()
	slos := llm.ComputeSLOs(spec, llm.DefaultConfig(), w)
	base := llm.Characterize(spec, llm.DefaultConfig(), w, slos)

	arrow := func(delta, eps float64) string {
		switch {
		case delta > eps:
			return "↑"
		case delta < -eps:
			return "↓"
		default:
			return "−"
		}
	}
	row := func(name string, c llm.Config) {
		e := llm.Characterize(spec, c, w, slos)
		r.addf("%-28s perf %s   temp %s   power %s   quality %s",
			name,
			arrow(e.Goodput-base.Goodput, base.Goodput*0.01),
			arrow(e.PeakGPUPowerFrac-base.PeakGPUPowerFrac, 0.01),
			arrow(e.AvgServerPowerW-base.AvgServerPowerW, base.AvgServerPowerW*0.01),
			arrow(e.Quality-base.Quality, 0.005))
	}
	small := llm.DefaultConfig()
	small.Model = llm.Llama7B
	row("Model size (70B→7B)", small)
	quant := llm.DefaultConfig()
	quant.Quant = llm.FP8
	row("Quantization (FP16→FP8)", quant)
	tp := llm.DefaultConfig()
	tp.TP = 2
	row("Parallelism (TP8→TP2)", tp)
	freq := llm.DefaultConfig()
	freq.FreqFrac = 0.5
	row("Frequency (2GHz→1GHz)", freq)
	batch := llm.DefaultConfig()
	batch.MaxBatch = 16
	row("Batch size (64→16)", batch)
	r.notef("paper Table 1: size ↑↓↓↓↓; quant ↑↓↓↓; TP8→TP2 ↓↑↓−; freq ↓↓↓−; batch ↓↓↓− (temp column = hottest-GPU power fraction)")
	return r, nil
}

// Fig1 renders the median inlet temperature per rack across the layout.
func Fig1(p Params) (*Report, error) {
	r := &Report{ID: "fig1", Title: "Datacenter layout inlet heatmap"}
	dc := largeDC(p)
	outside := trace.NewOutsideTemp(trace.RegionTemperate, 7*24*time.Hour, 10*time.Minute, p.Seed)
	medians := make([][]float64, len(dc.Rows))
	for rowID, row := range dc.Rows {
		medians[rowID] = make([]float64, len(row.Racks))
		for k, rack := range row.Racks {
			var samples []float64
			for h := 0; h < 7*24; h += 3 {
				o := outside.At(time.Duration(h) * time.Hour)
				samples = append(samples, thermal.InletTemp(rack.Servers[len(rack.Servers)-1], o, 0.6, 0))
			}
			medians[rowID][k] = regress.Percentile(samples, 50)
		}
	}
	for rowID, row := range medians {
		line := fmt.Sprintf("row %2d:", rowID)
		for _, m := range row {
			line += fmt.Sprintf(" %5.1f", m)
		}
		r.Lines = append(r.Lines, line)
	}
	r.notef("paper Fig. 1: median inlet 18–23 °C with rack-position hotspots at row ends")
	return r, nil
}

// Fig2 prints the inlet and outside temperature timeline for three servers.
func Fig2(p Params) (*Report, error) {
	r := &Report{ID: "fig2", Title: "Inlet vs outside temperature, three servers, one month"}
	dc := largeDC(p)
	outside := trace.NewOutsideTemp(trace.RegionTemperate, 31*24*time.Hour, 10*time.Minute, p.Seed)
	servers := []*layout.Server{dc.Servers[0], dc.Servers[len(dc.Servers)/2], dc.Servers[len(dc.Servers)-1]}
	r.addf("%-6s %8s %8s %8s %8s", "day", "outside", "srv1", "srv2", "srv3")
	for day := 0; day < 31; day += 2 {
		at := time.Duration(day)*24*time.Hour + 15*time.Hour
		o := outside.At(at)
		r.addf("%-6d %8.1f %8.1f %8.1f %8.1f", day, o,
			thermal.InletTemp(servers[0], o, 0.6, 0),
			thermal.InletTemp(servers[1], o, 0.6, 0),
			thermal.InletTemp(servers[2], o, 0.6, 0))
	}
	r.notef("paper Fig. 2: inlet tracks outside; one server consistently ≈2 °C warmer")
	return r, nil
}

// Fig3 fits the inlet-vs-outside regression for three servers and reports
// the regime slopes.
func Fig3(p Params) (*Report, error) {
	r := &Report{ID: "fig3", Title: "Inlet vs outside regression"}
	dc := largeDC(p)
	rng := rand.New(rand.NewPCG(p.Seed, 3))
	for i, srv := range []*layout.Server{dc.Servers[0], dc.Servers[len(dc.Servers)/2], dc.Servers[len(dc.Servers)-1]} {
		var xs, ys, zs []float64
		for k := 0; k < 2000; k++ {
			o := rng.Float64()*40 - 2
			l := rng.Float64()
			xs = append(xs, o)
			ys = append(ys, l)
			zs = append(zs, thermal.InletTemp(srv, o, l, 0)+rng.NormFloat64()*0.2)
		}
		surf, err := regress.FitSurface(xs, ys, zs, thermal.DefaultKnots)
		if err != nil {
			return nil, err
		}
		var pred, act []float64
		for k := 0; k < 400; k++ {
			o := rng.Float64()*40 - 2
			l := rng.Float64()
			pred = append(pred, surf.Eval(o, l))
			act = append(act, thermal.InletTemp(srv, o, l, 0))
		}
		r.addf("server %d: inlet(5°C)=%5.1f inlet(20°C)=%5.1f inlet(32°C)=%5.1f  slope(15–25)=%4.2f °C/°C  MAE=%.2f °C",
			i+1, surf.Eval(5, 0.5), surf.Eval(20, 0.5), surf.Eval(32, 0.5),
			(surf.Eval(25, 0.5)-surf.Eval(15, 0.5))/10, regress.MAE(pred, act))
	}
	r.notef("paper Fig. 3: flat ≈18 °C below 15 °C outside, ≈linear 15–25 °C, damped above; MAE < 1 °C")
	return r, nil
}

// Fig4 reports the inlet temperature spread attributable to rows, rack
// position within rows, and height within racks.
func Fig4(p Params) (*Report, error) {
	r := &Report{ID: "fig4", Title: "Inlet distribution across physical entities"}
	dc := largeDC(p)
	byRow := map[int][]float64{}
	byRackPos := map[int][]float64{}
	byHeight := map[int][]float64{}
	for _, row := range dc.Rows {
		for _, rack := range row.Racks {
			for _, srv := range rack.Servers {
				inlet := thermal.InletTemp(srv, 22, 0.6, 0)
				byRow[srv.Row] = append(byRow[srv.Row], inlet)
				byRackPos[rack.PosInRow] = append(byRackPos[rack.PosInRow], inlet)
				byHeight[srv.HeightU] = append(byHeight[srv.HeightU], inlet)
			}
		}
	}
	spread := func(groups map[int][]float64) float64 {
		lo, hi := 1e9, -1e9
		for _, xs := range groups {
			m := regress.Percentile(xs, 50)
			if m < lo {
				lo = m
			}
			if m > hi {
				hi = m
			}
		}
		return hi - lo
	}
	r.addf("median-inlet spread across rows:            %.2f °C", spread(byRow))
	r.addf("median-inlet spread across racks in a row:  %.2f °C", spread(byRackPos))
	r.addf("median-inlet spread across heights in rack: %.2f °C", spread(byHeight))
	r.notef("paper Fig. 4: ≤1 °C across rows, ≤2 °C across racks, height minor")
	return r, nil
}

// Fig5 reports inlet temperature as a function of datacenter load.
func Fig5(p Params) (*Report, error) {
	r := &Report{ID: "fig5", Title: "Inlet temperature vs datacenter load"}
	for _, outside := range []float64{15, 25, 35} {
		lo := thermal.CoolingCurve(outside, 0.1)
		hi := thermal.CoolingCurve(outside, 0.9)
		r.addf("outside %4.1f °C: inlet %.2f → %.2f °C from 10%% to 90%% load (Δ %.2f)", outside, lo, hi, hi-lo)
	}
	r.notef("paper Fig. 5: ≈2 °C inlet difference between low and high load")
	return r, nil
}

// Fig6 prints the GPU temperature/power timeline for one server under a
// diurnal load over 45 days.
func Fig6(p Params) (*Report, error) {
	r := &Report{ID: "fig6", Title: "GPU temperature and power over 45 days"}
	dc := largeDC(p)
	srv := dc.Servers[0]
	spec := srv.GPU
	outside := trace.NewOutsideTemp(trace.RegionTemperate, 45*24*time.Hour, 10*time.Minute, p.Seed)
	load := trace.LoadPattern{Base: 0.3, DiurnalAmp: 0.6, NoiseAmp: 0.05, Seed: p.Seed}
	r.addf("%-5s %8s %8s %8s %8s %9s", "day", "inlet", "outlet", "gpu", "mem", "power")
	for day := 0; day < 45; day += 3 {
		at := time.Duration(day)*24*time.Hour + 14*time.Hour
		util := load.At(at)
		inlet := thermal.InletTemp(srv, outside.At(at), 0.6, 0)
		gpuW := power.GPUPower(&spec, util, 1)
		frac := gpuW / spec.GPUTDPW
		gpuT := thermal.GPUTemp(srv, 0, inlet, frac)
		memT := thermal.MemTemp(gpuT, 0.4)
		serverW := power.ServerPowerAtUniformLoad(&spec, util)
		outlet := thermal.OutletTemp(inlet, serverW, thermal.Airflow(&spec, util))
		r.addf("%-5d %8.1f %8.1f %8.1f %8.1f %8.0fW", day, inlet, outlet, gpuT, memT, gpuW)
	}
	r.notef("paper Fig. 6: GPU tracks load between ≈30 °C idle and ≈70 °C busy; outlet sits above inlet")
	return r, nil
}

// Fig7 fits the GPU-temperature regression and reports its MAE.
func Fig7(p Params) (*Report, error) {
	r := &Report{ID: "fig7", Title: "GPU temperature regression"}
	dc := largeDC(p)
	srv := dc.Servers[0]
	rng := rand.New(rand.NewPCG(p.Seed, 7))
	var feats [][]float64
	var temps []float64
	for i := 0; i < 1500; i++ {
		inlet := 18 + rng.Float64()*14
		frac := rng.Float64()
		feats = append(feats, []float64{1, inlet, frac})
		temps = append(temps, thermal.GPUTemp(srv, 0, inlet, frac)+rng.NormFloat64()*0.3)
	}
	lin, err := regress.FitLinear(feats, temps)
	if err != nil {
		return nil, err
	}
	var pred, act []float64
	for i := 0; i < 400; i++ {
		inlet := 18 + rng.Float64()*14
		frac := rng.Float64()
		pred = append(pred, lin.Eval([]float64{1, inlet, frac}))
		act = append(act, thermal.GPUTemp(srv, 0, inlet, frac))
	}
	r.addf("T_gpu = %.2f + %.3f·inlet + %.2f·powerFrac", lin.Weights[0], lin.Weights[1], lin.Weights[2])
	r.addf("held-out MAE = %.3f °C", regress.MAE(pred, act))
	r.notef("paper Fig. 7: linear regression on (inlet, GPU load) with MAE < 1 °C")
	return r, nil
}

// Fig8 reports the sorted full-load temperatures of the 8 GPUs of one
// server.
func Fig8(p Params) (*Report, error) {
	r := &Report{ID: "fig8", Title: "Sorted per-GPU temperatures of one server"}
	dc := largeDC(p)
	srv := dc.Servers[0]
	temps := make([]float64, len(srv.GPUTempGainC))
	for g := range temps {
		temps[g] = thermal.GPUTemp(srv, g, 24, 0.95)
	}
	sorted := sortedCopy(temps)
	line := "full-load GPU temps (sorted):"
	for _, t := range sorted {
		line += fmt.Sprintf(" %5.1f", t)
	}
	r.Lines = append(r.Lines, line)
	r.addf("intra-server spread = %.1f °C", sorted[len(sorted)-1]-sorted[0])
	r.notef("paper Fig. 8: up to ≈10 °C spread across the 8 GPUs at identical load")
	return r, nil
}

// Fig9 reports the fleet-wide GPU temperature distribution at high load and
// the per-GPU-number medians.
func Fig9(p Params) (*Report, error) {
	r := &Report{ID: "fig9", Title: "Fleet GPU temperature distribution at high load"}
	dc := largeDC(p)
	var all []float64
	byIdx := make([][]float64, dc.Servers[0].GPU.GPUsPerServer)
	for _, srv := range dc.Servers {
		for g := range srv.GPUTempGainC {
			t := thermal.GPUTemp(srv, g, 24, 0.95)
			all = append(all, t)
			byIdx[g] = append(byIdx[g], t)
		}
	}
	r.addf("%d GPUs at high load, comparable inlet:", len(all))
	r.Lines = append(r.Lines, cdfRow("GPU temp", all, regress.Percentile))
	r.addf("fleet range = %.1f °C", regress.Percentile(all, 100)-regress.Percentile(all, 0))
	line := "median by GPU number:"
	for g, xs := range byIdx {
		line += fmt.Sprintf(" GPU%d=%.1f", g+1, regress.Percentile(xs, 50))
	}
	r.Lines = append(r.Lines, line)
	r.notef("paper Fig. 9: >20 °C fleet-wide range; even GPU numbers cooler than odd")
	return r, nil
}

// Fig10 runs the baseline over the scaled cluster and reports row power
// imbalance: four sample row timelines plus the P50/P99 CDF across rows.
func Fig10(p Params) (*Report, error) {
	r := &Report{ID: "fig10", Title: "Row power imbalance"}
	s := largeSpec(r.ID, p)
	s.Policies = []string{"baseline"}
	c, err := s.Campaign(p.Scale)
	if err != nil {
		return nil, err
	}
	// The observer runs after each tick's kernel, when st.RowPowerW holds
	// the tick's row draws.
	var rowW [][]float64
	c.Points[0].Scenario.Observer = func(st *cluster.State) {
		if rowW == nil {
			rowW = make([][]float64, len(st.RowPowerW))
		}
		for row, w := range st.RowPowerW {
			rowW[row] = append(rowW[row], w)
		}
	}
	res, err := c.Run(scenario.RunOptions{Parallel: p.Parallel})
	if err != nil {
		return nil, err
	}
	peak := res.Runs[0][0].PeakPower()
	nRows := len(rowW)
	step := len(rowW[0]) / 8
	if step == 0 {
		step = 1
	}
	for i := 0; i < 4 && i < nRows; i++ {
		line := fmt.Sprintf("row %d util%%:", i)
		for t := 0; t < len(rowW[i]); t += step {
			line += fmt.Sprintf(" %3.0f", rowW[i][t]/peak*100)
		}
		r.Lines = append(r.Lines, line)
	}
	var p50s, p99s []float64
	for row := 0; row < nRows; row++ {
		p50s = append(p50s, regress.Percentile(rowW[row], 50))
		p99s = append(p99s, regress.Percentile(rowW[row], 99))
	}
	maxP99 := regress.Percentile(p99s, 100)
	r.addf("rows whose P99 power sits below the hungriest row:")
	for _, q := range []float64{50, 75, 90} {
		v := regress.Percentile(p99s, q)
		r.addf("  %2.0f%% of rows draw ≥ %.0f%% less P99 power than the max", q, (1-v/maxP99)*100)
	}
	r.addf("%s", cdfRow("row P50 (kW)", scaleSlice(p50s, 1e-3), regress.Percentile))
	r.addf("%s", cdfRow("row P99 (kW)", scaleSlice(p99s, 1e-3), regress.Percentile))
	r.notef("paper Fig. 10: heavy tail — 50/75/90%% of rows draw 28/18/10%% less P99 power than the hungriest")
	return r, nil
}

// Fig11 evaluates many random placements of 80 VMs over two rows and
// reports the spread of peak temperature and row power plus their
// correlation.
func Fig11(p Params) (*Report, error) {
	r := &Report{ID: "fig11", Title: "Random placement spread"}
	dc := mustDC(layout.SmallConfig())
	w := genWorkload(trace.WorkloadConfig{
		Servers: len(dc.Servers), SaaSFraction: 0.5,
		Duration: 24 * time.Hour, Endpoints: 3, Seed: p.Seed,
	})
	var loads []float64
	for _, vm := range w.VMs {
		if vm.Arrival != 0 {
			continue
		}
		if vm.Kind == trace.IaaS {
			peak := 0.0
			for h := 0; h < 24; h++ {
				if l := vm.Load.At(time.Duration(h) * time.Hour); l > peak {
					peak = l
				}
			}
			loads = append(loads, peak)
		} else {
			loads = append(loads, 0.68) // SaaS instances at busy diurnal peak
		}
	}
	trials := int(100000 * p.Scale)
	if trials < 2000 {
		trials = 2000
	}
	spec := layout.Spec(dc.Config.GPU)
	// Hoist the trial-invariant physics out of the trial loop: the inlet
	// depends only on the server, and per-VM GPU power fraction / server
	// power depend only on the VM's load — only the permutation varies.
	inletC := make([]float64, len(dc.Servers))
	rowOf := make([]int, len(dc.Servers))
	for id, srv := range dc.Servers {
		inletC[id] = thermal.InletTemp(srv, 30, 0.7, 0)
		rowOf[id] = srv.Row
	}
	gpuFrac := make([]float64, len(loads))
	serverW := make([]float64, len(loads))
	for v, load := range loads {
		gpuFrac[v] = power.GPUPower(&spec, load, 1) / spec.GPUTDPW
		serverW[v] = power.ServerPowerAtUniformLoad(&spec, load)
	}
	// The hottest-GPU temperature of (server, VM) does not depend on the
	// permutation either: evaluate the thermal surface once for every pair
	// (servers × VMs × GPUs evaluations) so each trial reduces to table
	// lookups. At 100k trials this replaces ~10^8 physics evaluations.
	maxTempOn := make([]float64, len(dc.Servers)*len(loads))
	for id, srv := range dc.Servers {
		row := maxTempOn[id*len(loads) : (id+1)*len(loads)]
		for v := range loads {
			maxT := 0.0
			for g := range srv.GPUTempGainC {
				if t := thermal.GPUTemp(srv, g, inletC[id], gpuFrac[v]); t > maxT {
					maxT = t
				}
			}
			row[v] = maxT
		}
	}
	// Trials are independent: fan them out across the worker pool, one
	// deterministic PCG stream per trial so the result is byte-identical
	// for any worker count. Each worker keeps its own permutation scratch
	// and reseeds a private PCG per trial instead of allocating a new one.
	type trialResult struct{ tempC, powerKW float64 }
	workers := sim.ResolveWorkers(p.Parallel)
	perms := make([][]int, workers)
	pcgs := make([]*rand.PCG, workers)
	rngs := make([]*rand.Rand, workers)
	results, _ := sim.RunParallel(trials, workers, func(worker, trial int) (trialResult, error) {
		perm := perms[worker]
		if perm == nil {
			perm = make([]int, len(dc.Servers))
			perms[worker] = perm
			pcgs[worker] = rand.NewPCG(0, 0)
			rngs[worker] = rand.New(pcgs[worker])
		}
		for i := range perm {
			perm[i] = i
		}
		pcgs[worker].Seed(p.Seed, 11+uint64(trial))
		rng := rngs[worker]
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		maxTemp := 0.0
		var rowPower [2]float64
		for v := range loads {
			id := perm[v]
			if t := maxTempOn[id*len(loads)+v]; t > maxTemp {
				maxTemp = t
			}
			rowPower[rowOf[id]] += serverW[v]
		}
		peak := rowPower[0]
		if rowPower[1] > peak {
			peak = rowPower[1]
		}
		return trialResult{tempC: maxTemp, powerKW: peak / 1000}, nil
	})
	peakTemps := make([]float64, trials)
	peakPowers := make([]float64, trials)
	for i, tr := range results {
		peakTemps[i] = tr.tempC
		peakPowers[i] = tr.powerKW
	}
	r.addf("%d random placements of %d VMs across 2 rows:", trials, len(loads))
	r.Lines = append(r.Lines, cdfRow("peak temp °C", peakTemps, regress.Percentile))
	r.Lines = append(r.Lines, cdfRow("row power kW", peakPowers, regress.Percentile))
	worst := regress.Percentile(peakPowers, 100)
	best := regress.Percentile(peakPowers, 0)
	r.addf("worst placement draws %.0f%% more peak power than the best", (worst/best-1)*100)
	r.addf("temp/power correlation r = %.2f", correlation(peakTemps, peakPowers))
	r.notef("paper Fig. 11: worst placement >85 °C vs ≈72 °C typical; +27%% power; no temp/power correlation")
	return r, nil
}

// Fig12 reports the VM lifetime CDF and the VMs-per-endpoint CDF.
func Fig12(p Params) (*Report, error) {
	r := &Report{ID: "fig12", Title: "VM lifetimes and endpoint sizes"}
	w := genWorkload(trace.WorkloadConfig{
		Servers: 4000, SaaSFraction: 0.5, Duration: 7 * 24 * time.Hour,
		Endpoints: 10, Seed: p.Seed,
	})
	var lifetimes []float64
	for _, vm := range w.VMs {
		lifetimes = append(lifetimes, vm.Lifetime.Hours()/24)
	}
	r.Lines = append(r.Lines, cdfRow("lifetime days", lifetimes, regress.Percentile))
	over2w := 0
	for _, d := range lifetimes {
		if d > 14 {
			over2w++
		}
	}
	r.addf("VMs living > 2 weeks: %.0f%%", float64(over2w)/float64(len(lifetimes))*100)
	var sizes []float64
	for _, ep := range w.Endpoints {
		sizes = append(sizes, float64(ep.NumVMs))
	}
	sort.Float64s(sizes)
	line := "endpoint sizes:"
	for _, s := range sizes {
		line += fmt.Sprintf(" %d", int(s))
	}
	r.Lines = append(r.Lines, line)
	r.notef("paper Fig. 12: >60%% of VMs live over two weeks; endpoints span ≈23–100+ VMs, half of VMs in large endpoints")
	return r, nil
}

// Fig13 prints a 4-week diurnal load/power pattern for an example VM and row.
func Fig13(p Params) (*Report, error) {
	r := &Report{ID: "fig13", Title: "Diurnal VM load and row power"}
	w := genWorkload(trace.WorkloadConfig{
		Servers: 200, SaaSFraction: 0.5, Duration: 28 * 24 * time.Hour,
		Endpoints: 3, Seed: p.Seed,
	})
	var iaas []trace.VMSpec
	for _, vm := range w.VMs {
		if vm.Kind == trace.IaaS && vm.Arrival == 0 {
			iaas = append(iaas, vm)
		}
	}
	spec := layout.Spec(layout.A100)
	r.addf("%-5s %10s %14s", "day", "vm-load", "row-power-norm")
	peakRow := 0.0
	var rows []float64
	for day := 0; day < 28; day++ {
		at := time.Duration(day)*24*time.Hour + 14*time.Hour
		rowW := 0.0
		for i := 0; i < 40 && i < len(iaas); i++ {
			rowW += power.ServerPowerAtUniformLoad(&spec, iaas[i].Load.At(at))
		}
		rows = append(rows, rowW)
		if rowW > peakRow {
			peakRow = rowW
		}
	}
	for day := 0; day < 28; day += 2 {
		at := time.Duration(day)*24*time.Hour + 14*time.Hour
		r.addf("%-5d %10.2f %14.2f", day, iaas[0].Load.At(at), rows[day]/peakRow)
	}
	r.notef("paper Fig. 13: distinctly periodic diurnal/weekly pattern at VM and row level")
	return r, nil
}

// Fig14 builds row- and customer-based power templates from one week and
// evaluates the prediction error on the next.
func Fig14(p Params) (*Report, error) {
	r := &Report{ID: "fig14", Title: "Power prediction error CDFs"}
	w := genWorkload(trace.WorkloadConfig{
		Servers: 400, SaaSFraction: 0, Duration: 14 * 24 * time.Hour,
		Endpoints: 1, Seed: p.Seed,
	})
	spec := layout.Spec(layout.A100)
	samplesPerHour := 6
	total := 14 * 24 * samplesPerHour
	// Row-based: aggregate 40 VMs per row.
	nRows := 8
	rowSeries := make([][]float64, nRows)
	var rowVMs [][]trace.VMSpec
	var active []trace.VMSpec
	for _, vm := range w.VMs {
		if vm.Arrival == 0 {
			active = append(active, vm)
		}
	}
	for rIdx := 0; rIdx < nRows; rIdx++ {
		lo := rIdx * 40
		if lo+40 > len(active) {
			break
		}
		rowVMs = append(rowVMs, active[lo:lo+40])
		rowSeries[rIdx] = make([]float64, total)
	}
	for i := 0; i < total; i++ {
		at := time.Duration(i) * 10 * time.Minute
		for rIdx := range rowVMs {
			sum := 0.0
			for _, vm := range rowVMs[rIdx] {
				sum += power.ServerPowerAtUniformLoad(&spec, vm.Load.At(at))
			}
			rowSeries[rIdx][i] = sum
		}
	}
	week := 7 * 24 * samplesPerHour
	var rowErrs []float64
	under := 0
	for rIdx := range rowVMs {
		tpl, err := power.BuildTemplate(rowSeries[rIdx][:week], samplesPerHour, 99)
		if err != nil {
			return nil, err
		}
		errs := tpl.PredictionErrors(rowSeries[rIdx][week:], samplesPerHour)
		for _, e := range errs {
			rowErrs = append(rowErrs, e)
			if e < 0 {
				under++
			}
		}
	}
	r.Lines = append(r.Lines, cdfRow("row err % P99", rowErrs, regress.Percentile))
	r.addf("row-based P99 template underpredicts %.1f%% of row-hours", float64(under)/float64(len(rowErrs))*100)

	// Customer-based per-VM prediction at several percentiles. The series
	// buffer is scratch reused across every (percentile, VM) pair — each
	// pass overwrites all of it — instead of 120 fresh two-week slices.
	series := make([]float64, total)
	for _, pct := range []float64{50, 90, 99} {
		var errs []float64
		u := 0
		for i := 0; i < 40 && i < len(active); i++ {
			for k := range series {
				series[k] = power.ServerPowerAtUniformLoad(&spec, active[i].Load.At(time.Duration(k)*10*time.Minute))
			}
			tpl, err := power.BuildTemplate(series[:week], samplesPerHour, pct)
			if err != nil {
				return nil, err
			}
			for _, e := range tpl.PredictionErrors(series[week:], samplesPerHour) {
				errs = append(errs, e)
				if e < 0 {
					u++
				}
			}
		}
		within := 0
		for _, e := range errs {
			if e >= -10 && e <= 10 {
				within++
			}
		}
		r.addf("customer-based P%-2.0f: %.0f%% within ±10%%, underpredicts %.1f%%",
			pct, float64(within)/float64(len(errs))*100, float64(u)/float64(len(errs))*100)
	}
	r.notef("paper Fig. 14: row templates <10%% error for most hours, P99 underpredicts <4%%; customer templates within 10%% for >75%% of VM-hours")
	return r, nil
}

// Fig15 reports per-phase GPU temperature, memory temperature and server
// power across TP, batch and model-size settings.
func Fig15(p Params) (*Report, error) {
	r := &Report{ID: "fig15", Title: "Per-phase temperature and power by configuration"}
	spec := layout.Spec(layout.A100)
	inlet := 24.0
	gain, bias := 42.0, 5.0 // representative GPU thermal response
	row := func(name string, c llm.Config) {
		for _, phase := range []llm.Phase{llm.Prefill, llm.Decode} {
			frac := llm.GPUPowerFrac(spec, c, phase)
			gpuT := inlet + bias + gain*frac
			memT := thermal.MemTemp(gpuT, llm.MemIntensity(phase, c))
			r.addf("%-18s %-8s gpu=%5.1f°C mem=%5.1f°C power=%5.2fkW",
				name, phase, gpuT, memT, llm.ServerPowerW(spec, c, phase)/1000)
		}
	}
	for _, tp := range []int{8, 4, 2} {
		c := llm.DefaultConfig()
		c.TP = tp
		row(fmt.Sprintf("TP%d", tp), c)
	}
	for _, b := range []int{64, 16, 1} {
		c := llm.DefaultConfig()
		c.MaxBatch = b
		row(fmt.Sprintf("batch %d", b), c)
	}
	for _, m := range []llm.ModelSize{llm.Llama70B, llm.Llama13B, llm.Llama7B} {
		c := llm.DefaultConfig()
		c.Model = m
		row(m.String(), c)
	}
	r.notef("paper Fig. 15: TP↓ ⇒ total power ↓ but hottest GPU ↑; batch↓ ⇒ power/temp ↓ but decode HBM ↑; size↓ ⇒ everything ↓")
	return r, nil
}

// Fig16 prints the normalized goodput/temperature/power frontier.
func Fig16(p Params) (*Report, error) {
	r := &Report{ID: "fig16", Title: "Goodput vs temperature and power (Pareto)"}
	prof := llm.DefaultProfile(layout.A100)
	maxGoodput, maxFrac, maxPower := 0.0, 0.0, 0.0
	for _, e := range prof.Entries {
		if e.Goodput > maxGoodput {
			maxGoodput = e.Goodput
		}
		if e.PeakGPUPowerFrac > maxFrac {
			maxFrac = e.PeakGPUPowerFrac
		}
		if e.PeakServerPowerW > maxPower {
			maxPower = e.PeakServerPowerW
		}
	}
	for _, m := range []llm.ModelSize{llm.Llama70B, llm.Llama13B, llm.Llama7B} {
		frontier := prof.ParetoFrontier(m)
		r.addf("%s frontier (%d points of %d configs):", m, len(frontier), len(prof.Entries))
		limit := 6
		for i, e := range frontier {
			if i >= limit {
				r.addf("  … %d more", len(frontier)-limit)
				break
			}
			r.addf("  %-26s goodput=%.2f temp=%.2f power=%.2f quality=%.2f",
				e.Config, e.Goodput/maxGoodput, e.PeakGPUPowerFrac/maxFrac, e.PeakServerPowerW/maxPower, e.Quality)
		}
	}
	r.notef("paper Fig. 16: per-model Pareto frontiers; model size dominates the temperature/power floor")
	return r, nil
}

func scaleSlice(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func correlation(xs, ys []float64) float64 {
	mx, sx := regress.MeanStd(xs)
	my, sy := regress.MeanStd(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	sum := 0.0
	for i := range xs {
		sum += (xs[i] - mx) * (ys[i] - my)
	}
	return sum / float64(len(xs)) / (sx * sy)
}
