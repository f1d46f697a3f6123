package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/benchmark/result"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the old
// median a metric may worsen by; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// config is the part of BENCHMARK.json the comparison reads.
type config struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readConfig(path string) (config, error) {
	var c config
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Verdicts for one metric on one workload.
const (
	gain       = "gain"
	regression = "regression"
	unresolved = "unresolved"
	unchanged  = "unchanged"
	noBaseline = "no baseline"
)

// stats are one side's quartiles across runs.
type stats struct{ q1, med, q3 float64 }

func quartiles(xs []float64) stats {
	q1, med, q3 := result.Quartiles(xs)
	return stats{q1, med, q3}
}

// spread is the interquartile range as a share of the median.
func (s stats) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

// judgement is the comparison of one metric on one workload.
type judgement struct {
	old, new   stats
	wins, pair int
	verdict    string
}

// judge applies the gate's rules to the old and new runs of one metric, each
// in the order they were recorded; run i of one side pairs with run i of the
// other. A metric the old side never recorded has no baseline. A gain needs the new side to win at least 9 of 10 pairs (ties count
// for neither) and the medians to differ by more than the old side's
// interquartile range, with no more failed ops than the old side. Where
// either side's spread is wider than the bound the metric is unresolved,
// unless every new run beats every old run (unchanged), or every old run beats
// every new run and the new median is worse by more than the bound
// (regression). Otherwise the new median being worse by more than the bound
// is a regression.
func judge(old, new []float64, m metricSpec, moreFailures bool) judgement {
	j := judgement{old: quartiles(old), new: quartiles(new), pair: min(len(old), len(new))}
	lower := m.Better != "higher"
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	for i := 0; i < j.pair; i++ {
		if better(new[i], old[i]) {
			j.wins++
		}
	}
	improve := j.new.med - j.old.med
	if lower {
		improve = -improve
	}
	switch {
	case len(old) == 0:
		j.verdict = noBaseline
	case j.pair > 0 && 10*j.wins >= 9*j.pair && improve > j.old.q3-j.old.q1 && !moreFailures:
		j.verdict = gain
	case max(j.old.spread(), j.new.spread()) > m.Bound:
		j.verdict = unresolved
		switch {
		case allBetter(new, old, better):
			j.verdict = unchanged
		case allBetter(old, new, better) && -improve > m.Bound*math.Abs(j.old.med):
			j.verdict = regression
		}
	case -improve > m.Bound*math.Abs(j.old.med):
		j.verdict = regression
	default:
		j.verdict = unchanged
	}
	return j
}

// allBetter reports whether every value of a is better than every value of b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// newestSet returns the results file in dir whose runs were recorded last.
// Only the recorded timestamps decide: file names carry no order.
func newestSet(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return "", err
	}
	best, bestAt := "", time.Time{}
	for _, p := range paths {
		runs, err := result.ReadSet(p)
		if err != nil {
			return "", err
		}
		for _, r := range runs {
			if r.Recorded.After(bestAt) {
				best, bestAt = p, r.Recorded
			}
		}
	}
	if best == "" {
		return "", fmt.Errorf("no recorded results in %s", dir)
	}
	return best, nil
}

// series collects one metric's values per workload from the runs of one
// traced or untraced kind, in recorded order, and each workload's failed ops.
func series(runs []result.Run, traced bool) (vals map[string]map[string][]float64, failed map[string]int) {
	sorted := append([]result.Run(nil), runs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Recorded.Before(sorted[b].Recorded) })
	vals = map[string]map[string][]float64{}
	failed = map[string]int{}
	for _, r := range sorted {
		if r.Trace != traced {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
		failed[r.Workload] += r.Failed
	}
	return vals, failed
}

// compare writes one row per workload and metric and reports whether any
// end-to-end metric regressed or the new runs failed ops.
func compare(w io.Writer, cfg config, old, new []result.Run) (bad bool) {
	for _, traced := range []bool{false, true} {
		metrics := cfg.EndToEnd
		if traced {
			metrics = cfg.PerLayer
		}
		ov, of := series(old, traced)
		nv, nf := series(new, traced)
		var workloads []string
		for wl := range nv {
			workloads = append(workloads, wl)
		}
		sort.Strings(workloads)
		if len(workloads) == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s %-34s %12s %25s %12s %25s %8s %6s  %s\n",
			"workload", "metric", "old median", "old q1..q3", "new median", "new q1..q3", "change", "wins", "verdict")
		for _, wl := range workloads {
			if nf[wl] > 0 {
				bad = true
				fmt.Fprintf(w, "%-10s new runs failed %d ops\n", wl, nf[wl])
			}
			for _, m := range metrics {
				o, n := ov[wl][m.Name], nv[wl][m.Name]
				if len(n) == 0 {
					continue
				}
				j := judge(o, n, m, nf[wl] > of[wl])
				if traced {
					j.verdict = "-" // no bound: descriptive only
				} else if j.verdict == regression {
					bad = true
				}
				change := "-"
				if j.old.med != 0 {
					change = fmt.Sprintf("%+.1f%%", 100*(j.new.med-j.old.med)/math.Abs(j.old.med))
				}
				fmt.Fprintf(w, "%-10s %-34s %12.5g %12.5g..%-12.5g %12.5g %12.5g..%-12.5g %8s %3d/%-2d  %s\n",
					wl, m.Name, j.old.med, j.old.q1, j.old.q3, j.new.med, j.new.q1, j.new.q3, change, j.wins, j.pair, j.verdict)
			}
		}
	}
	return bad
}

// sameSeconds checks that every run of both sets measured for the same time:
// runs of different lengths are not comparable.
func sameSeconds(old, new []result.Run) error {
	all := append(append([]result.Run(nil), old...), new...)
	for _, r := range all {
		if r.Seconds != all[0].Seconds {
			return fmt.Errorf("runs of %g s and %g s cannot be compared", all[0].Seconds, r.Seconds)
		}
	}
	return nil
}

// describe names the machine a set was measured on.
func describe(runs []result.Run) string {
	if len(runs) == 0 {
		return "no runs"
	}
	e := runs[0].Env
	return fmt.Sprintf("%d runs, %s, nproc %d, GOMAXPROCS %d, %s", len(runs), strings.TrimSpace(e.CPUModel), e.NProc, e.GOMAXPROCS, e.GoVersion)
}
