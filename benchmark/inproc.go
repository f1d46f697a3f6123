package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/benchmark/result"
	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
)

// specFile is one committed campaign spec an in-process op runs, and the
// report it must produce.
type specFile struct {
	path   string // relative to the repository root
	golden string // expected report, relative to the root
	// seeded specs take --seed as their spec seed; their golden holds at
	// seed 42 only. Other specs replay pinned inputs whatever the seed.
	seeded bool
	// grid marks a golden written by another runner (the hard-coded figure
	// runners): only its grid lines must match, as in the scenario package's
	// Fig. 20 compatibility test.
	grid bool
}

// inProcess is a workload whose op runs campaigns through scenario.Campaign
// in this process: spec file to rendered report.
type inProcess struct {
	specs    []specFile
	parallel int // campaign worker pool of an untraced op
	// warmCache keeps the set-up compile for the ops, which then hit the
	// compile cache; otherwise every op compiles into a fresh cache.
	warmCache bool
	// warmupOp runs one untimed op before measuring.
	warmupOp bool
}

// expected is the report one spec must produce, and how to compare.
type expected struct {
	want []byte
	grid bool
}

func (e *expected) matches(got []byte) bool {
	if !e.grid {
		return bytes.Equal(got, e.want)
	}
	// The golden's first line is its runner's own title and its last a note;
	// the grid between them must open the campaign report after its title.
	want := strings.Split(strings.TrimRight(string(e.want), "\n"), "\n")
	lines := strings.Split(strings.TrimRight(string(got), "\n"), "\n")
	if len(want) < 2 || len(lines) < len(want)-1 {
		return false
	}
	return slices.Equal(lines[1:len(want)-1], want[1:len(want)-1])
}

func (b *bench) loadSpec(sf specFile) (*scenario.Spec, error) {
	sp, err := scenario.Load(filepath.Join(b.root, sf.path))
	if err != nil {
		return nil, err
	}
	if sf.seeded {
		seed := b.seed
		sp.Seed = &seed
	}
	return sp, nil
}

// setup loads and expands every spec, compiles every grid point into a fresh
// cache and fits the offline profiles of every datacenter: what the first
// op would otherwise pay.
func (w *inProcess) setup(b *bench) (*sim.CompileCache, []*layout.Datacenter, error) {
	cache := sim.NewCompileCache(0)
	var dcs []*layout.Datacenter
	for _, sf := range w.specs {
		sp, err := b.loadSpec(sf)
		if err != nil {
			return nil, nil, err
		}
		c, err := sp.Campaign(0)
		if err != nil {
			return nil, nil, err
		}
		for _, pt := range c.Points {
			cs, err := cache.Compile(pt.Scenario)
			if err != nil {
				return nil, nil, err
			}
			if !slices.Contains(dcs, cs.DC) {
				dcs = append(dcs, cs.DC)
			}
		}
	}
	for _, dc := range dcs {
		if _, err := core.BuildProfiles(dc); err != nil {
			return nil, nil, err
		}
	}
	return cache, dcs, nil
}

// op runs every spec from its file to its rendered report. With a tracer it
// runs serially and records the op's spans.
func (w *inProcess) op(b *bench, parallel int, warm *sim.CompileCache, tr *tracer) ([][]byte, error) {
	var opSpan *span
	if tr != nil {
		tr.op++
		opSpan = tr.open("op", 0)
		defer tr.close(opSpan)
	}
	reports := make([][]byte, len(w.specs))
	for i, sf := range w.specs {
		sp, err := b.loadSpec(sf)
		if err != nil {
			return nil, err
		}
		c, err := sp.Campaign(0)
		if err != nil {
			return nil, err
		}
		opt := scenario.RunOptions{Parallel: parallel, Cache: warm}
		if opt.Cache == nil {
			opt.Cache = sim.NewCompileCache(0)
		}
		var res *scenario.Result
		var buf bytes.Buffer
		if tr == nil {
			if res, err = c.Run(opt); err != nil {
				return nil, err
			}
			if _, err := res.WriteTo(&buf); err != nil {
				return nil, err
			}
			reports[i] = buf.Bytes()
			continue
		}
		before := opt.Cache.Stats().Scenarios
		for _, pt := range c.Points {
			s := tr.open("compile", opSpan.ID)
			_, err := opt.Cache.Compile(pt.Scenario)
			tr.close(s)
			if err != nil {
				return nil, err
			}
		}
		cs := tr.open("campaign", opSpan.ID)
		tr.instrument(c, cs, &opt)
		res, err = c.Run(opt)
		tr.close(cs)
		if err != nil {
			return nil, err
		}
		after := opt.Cache.Stats().Scenarios
		tr.cache.Hits += after.Hits - before.Hits
		tr.cache.Misses += after.Misses - before.Misses
		tr.cache.Evictions += after.Evictions - before.Evictions
		rs := tr.open("report", opSpan.ID)
		n, err := res.WriteTo(&buf)
		tr.close(rs)
		rs.Bytes = n
		if err != nil {
			return nil, err
		}
		reports[i] = buf.Bytes()
	}
	return reports, nil
}

// run sets up, then runs ops until the time is up. A traced run alternates
// untraced and traced ops, both serial, so the traced ones give the layer
// split and the pair gives the tracing overhead.
func (w *inProcess) run(b *bench) (result.Line, error) {
	var setups []float64
	var cache *sim.CompileCache
	var dcs []*layout.Datacenter
	for !b.enoughSetups(setups) {
		cache, dcs = nil, nil // let the collector free the previous set-up
		runtime.GC()
		t0 := time.Now()
		var err error
		if cache, dcs, err = w.setup(b); err != nil {
			return result.Line{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !w.warmCache {
		cache = nil
	}
	// The offline profiles are memoized per layout for the process; fill the
	// memo so no op pays the fit.
	for _, dc := range dcs {
		if _, err := core.ProfilesFor(dc); err != nil {
			return result.Line{}, err
		}
	}
	want := make([]*expected, len(w.specs))
	for i, sf := range w.specs {
		if sf.seeded && b.seed != goldenSeed {
			continue // the first op's reports become the reference
		}
		g, err := os.ReadFile(filepath.Join(b.root, sf.golden))
		if err != nil {
			return result.Line{}, err
		}
		want[i] = &expected{want: g, grid: sf.grid}
	}
	if w.warmupOp {
		if _, err := w.op(b, w.parallel, cache, nil); err != nil {
			return result.Line{}, fmt.Errorf("warm-up op: %w", err)
		}
	}
	runtime.GC()

	var tr *tracer
	parallel := w.parallel
	if b.trace {
		tr, parallel = newTracer(), 1
	}
	var times, traced []float64
	var allocs uint64
	attempted, failed := 0, 0
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; time.Since(start) < b.seconds || len(times) == 0 || (b.trace && len(traced) == 0); i++ {
		var opTr *tracer
		var ms0 runtime.MemStats
		if b.trace && i%2 == 1 {
			opTr = tr
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		reports, err := w.op(b, parallel, cache, opTr)
		d := time.Since(t0).Seconds()
		attempted++
		if opTr != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			allocs += ms1.TotalAlloc - ms0.TotalAlloc
			traced = append(traced, d)
		} else {
			times = append(times, d)
		}
		if err = w.check(reports, err, want); err != nil {
			failed++
			fmt.Fprintf(b.stderr, "op %d failed: %v\n", attempted, err)
		}
	}
	cpu := cpuSeconds() - cpu0
	rss, err := procStatusMB("self", "VmHWM")
	if err != nil {
		return result.Line{}, err
	}

	line := result.Line{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !b.trace {
		line.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":      regress.Percentile(setups, 50),
			"op_p50_s":     regress.Percentile(times, 50),
			"cpu_s_per_op": cpu / float64(attempted),
			"max_rss_mb":   rss,
		})
		return line, nil
	}
	v := layerValues(tr.spans)
	if n := tr.cache.Hits + tr.cache.Misses; n > 0 {
		v["sim.cache.hit_ratio"] = float64(tr.cache.Hits) / float64(n)
	}
	v["sim.cache.evictions"] = float64(tr.cache.Evictions) / float64(len(traced))
	v["bench.traced_op_p50_s"] = regress.Percentile(traced, 50)
	v["bench.trace_overhead_frac"] = regress.Percentile(traced, 50)/regress.Percentile(times, 50) - 1
	v["proc.alloc_mb_per_op"] = float64(allocs) / float64(len(traced)) / (1 << 20)
	writeLayerTable(b.stderr, v)
	line.Metrics = fill(perLayer, v)
	b.spans = tr
	return line, nil
}

// check compares one op's reports with the expected ones; a spec without an
// expected report takes this op's as the reference for the rest of the run.
func (w *inProcess) check(reports [][]byte, err error, want []*expected) error {
	if err != nil {
		return err
	}
	var errs []error
	for i, rep := range reports {
		if want[i] == nil {
			want[i] = &expected{want: rep}
			continue
		}
		if !want[i].matches(rep) {
			errs = append(errs, fmt.Errorf("%s: report differs from the expected bytes", w.specs[i].path))
		}
	}
	return errors.Join(errs...)
}
