package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"github.com/tapas-sim/tapas/benchmark/result"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names in the same order (a test checks it).
type metricDef struct{ name, unit string }

// endToEnd are what a user of the simulator waits for or pays: printed by an
// untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_s", "s"},
	{"cpu_s_per_op", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the per-layer numbers of a traced run (--trace 1). Counts and
// busy times are per op. A layer a workload does not reach reads 0; on the
// daemon workload the simulator layers run in another process and read 0.
var perLayer = []metricDef{
	{"sim.compile.calls", "count"},
	{"sim.compile.busy_s", "s"},
	{"sim.cache.hit_ratio", "ratio"},
	{"sim.cache.evictions", "count"},
	{"core.init.busy_s", "s"},
	{"core.place.calls", "count"},
	{"core.place.busy_s", "s"},
	{"core.place.us_per_call", "us"},
	{"core.place.reject_ratio", "ratio"},
	{"core.route.calls", "count"},
	{"core.route.busy_s", "s"},
	{"core.route_request.calls", "count"},
	{"core.route_request.busy_s", "s"},
	{"core.admit.calls", "count"},
	{"core.admit.busy_s", "s"},
	{"core.admit.shed_ratio", "ratio"},
	{"core.configure.calls", "count"},
	{"core.configure.busy_s", "s"},
	{"core.cap.calls", "count"},
	{"core.cap.busy_s", "s"},
	{"sim.tick.count", "count"},
	{"sim.tick.self_s", "s"},
	{"sim.tick.self_ns_per_server_tick", "ns"},
	{"sim.run.other_s", "s"},
	{"scenario.campaign.self_s", "s"},
	{"scenario.report.busy_s", "s"},
	{"scenario.report.bytes", "bytes"},
	{"bench.op.self_s", "s"},
	{"bench.traced_op_p50_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
	{"proc.alloc_mb_per_op", "MB"},
	{"serve.op_p99_s", "s"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.report_fetch_s", "s"},
	{"serve.rejected", "count"},
	{"serve.rss_mb_per_1k_jobs", "MB"},
}

// fill returns every metric of defs, taking values from vals and 0 for the
// rest.
func fill(defs []metricDef, vals map[string]float64) map[string]result.Metric {
	out := make(map[string]result.Metric, len(defs))
	for _, d := range defs {
		out[d.name] = result.Metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// layerValues derives the per-layer metrics from a traced run's spans: every
// op span's interval splits into spec loading and checking, compiles, the
// campaign's own time, its simulation runs and the report, and each run
// splits into Init, policy hooks, engine tick time and the rest.
func layerValues(spans []*span) map[string]float64 {
	v := map[string]float64{}
	var ops, runNs, initNs, hookNs, tickNs, serverTicks float64
	var hooks [nHooks]hookStat
	byID := map[int]*span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		d := float64(s.dur())
		switch s.Name {
		case "op":
			ops++
			v["bench.op.self_s"] += d
		case "compile":
			v["sim.compile.calls"]++
			v["sim.compile.busy_s"] += d
		case "campaign":
			v["scenario.campaign.self_s"] += d
		case "report":
			v["scenario.report.busy_s"] += d
			v["scenario.report.bytes"] += float64(s.Bytes)
		case "sim.run":
			runNs += d
			for h, name := range hookNames {
				hs := s.Hooks[name]
				hooks[h].Calls += hs.Calls
				hooks[h].BusyNs += hs.BusyNs
				hooks[h].Declined += hs.Declined
				if h == hInit {
					initNs += float64(hs.BusyNs)
				} else {
					hookNs += float64(hs.BusyNs)
				}
			}
			v["sim.tick.count"] += float64(s.Ticks)
			tickNs += float64(s.TickNs)
			serverTicks += float64(s.Ticks * s.Servers)
		}
		if p := byID[s.Parent]; p != nil {
			switch p.Name {
			case "op":
				v["bench.op.self_s"] -= d
			case "campaign":
				v["scenario.campaign.self_s"] -= d
			}
		}
	}
	if ops == 0 {
		return v
	}
	tickSelf := tickNs - hookNs
	v["sim.tick.self_s"] = tickSelf
	if serverTicks > 0 {
		v["sim.tick.self_ns_per_server_tick"] = tickSelf / serverTicks
	}
	v["sim.run.other_s"] = runNs - initNs - tickNs
	v["core.init.busy_s"] = initNs
	per := func(name string, h int) {
		v["core."+name+".calls"] = float64(hooks[h].Calls)
		v["core."+name+".busy_s"] = float64(hooks[h].BusyNs)
	}
	per("place", hPlace)
	per("route", hRoute)
	per("route_request", hRouteRequest)
	per("admit", hAdmit)
	per("configure", hConfigure)
	per("cap", hCap)
	if n := hooks[hPlace].Calls; n > 0 {
		v["core.place.us_per_call"] = float64(hooks[hPlace].BusyNs) / float64(n) / 1e3
		v["core.place.reject_ratio"] = float64(hooks[hPlace].Declined) / float64(n)
	}
	if n := hooks[hAdmit].Calls; n > 0 {
		v["core.admit.shed_ratio"] = float64(hooks[hAdmit].Declined) / float64(n)
	}
	// Per op, and nanoseconds to seconds for every busy or self time.
	for k := range v {
		switch {
		case strings.HasSuffix(k, "_s"):
			v[k] /= ops * 1e9
		case strings.HasSuffix(k, ".calls"), strings.HasSuffix(k, ".count"), strings.HasSuffix(k, ".bytes"):
			v[k] /= ops
		}
	}
	return v
}

// layerRows are the rows of the layer table, in the order the time of one op
// adds up: every row is self time or busy time, and together they cover it.
var layerRows = []struct{ label, metric string }{
	{"bench (spec load, check)", "bench.op.self_s"},
	{"sim.compile", "sim.compile.busy_s"},
	{"scenario.campaign (self)", "scenario.campaign.self_s"},
	{"core.init", "core.init.busy_s"},
	{"core.place", "core.place.busy_s"},
	{"core.route", "core.route.busy_s"},
	{"core.route_request", "core.route_request.busy_s"},
	{"core.admit", "core.admit.busy_s"},
	{"core.configure", "core.configure.busy_s"},
	{"core.cap", "core.cap.busy_s"},
	{"sim.tick (self)", "sim.tick.self_s"},
	{"sim.run (other)", "sim.run.other_s"},
	{"scenario.report", "scenario.report.busy_s"},
}

// writeLayerTable prints where one traced op's time went.
func writeLayerTable(w io.Writer, v map[string]float64) {
	total := 0.0
	for _, r := range layerRows {
		total += v[r.metric]
	}
	fmt.Fprintf(w, "%-26s %12s %7s\n", "layer", "s per op", "share")
	for _, r := range layerRows {
		share := 0.0
		if total > 0 {
			share = 100 * v[r.metric] / total
		}
		fmt.Fprintf(w, "%-26s %12.4f %6.1f%%\n", r.label, v[r.metric], share)
	}
	fmt.Fprintf(w, "%-26s %12.4f\n", "traced op", total)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procStatusMB reads a "kB" field such as VmHWM or VmRSS of /proc/<pid>/status
// in MiB. pid "self" is this process.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/status %s: %w", pid, field, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// procCPUSeconds is another process's user plus system CPU time, from
// /proc/<pid>/stat in clock ticks of 1/100 s (USER_HZ on Linux).
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesized command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (ut + st) / 100, nil
}

// environment describes the machine for the results record.
func environment() result.Env {
	env := result.Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, val, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return env
}
