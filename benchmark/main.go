// Command benchmark measures the TAPAS simulator on one named workload per
// invocation and prints every metric, by name and unit, as one JSON object on
// the last line of standard output. It checks every op's output against the
// committed golden reports, or against the run's first op at a seed without
// goldens.
//
// Run it from the repository root through run.sh, which builds it and the
// tapas-serve daemon into .bench_build first:
//
//	bash benchmark/run.sh --workload ablation --seed 42 --seconds 25 --trace 0
//
// --trace 1 runs serially with the policy timing wrapper, prints the
// per-layer metrics instead and writes the spans as JSON lines to
// .bench_build/spans. README.md describes the workloads, the metrics and the
// comparison tool.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/benchmark/result"
)

// goldenSeed is the seed every committed golden report was generated with.
const goldenSeed = 42

// A run sets up at least minSetups times and until its set-ups add up to a
// tenth of --seconds, but no more than maxSetups times; setup_s is their
// median. Short set-ups thus get enough samples for a steady median.
const (
	minSetups = 5
	maxSetups = 200
)

// enoughSetups reports whether the set-up times measured so far, in seconds,
// complete the run's set-up.
func (b *bench) enoughSetups(setups []float64) bool {
	if len(setups) < minSetups {
		return false
	}
	total := 0.0
	for _, s := range setups {
		total += s
	}
	return total >= b.seconds.Seconds()/10 || len(setups) >= maxSetups
}

// bench is one benchmark run's settings.
type bench struct {
	root    string // repository root
	seed    uint64
	seconds time.Duration
	trace   bool
	stderr  io.Writer
	spans   *tracer // a traced in-process run's spans
}

// workloads are the benchmark's workloads by name. Each one stresses a
// different layer; README.md gives the measured reasons.
var workloads = map[string]func(b *bench) (result.Line, error){
	// Placement-bound: the paper fleet at five times its aisles for a day,
	// compiled in set-up, so an op is Campaign.Run to report on a warm cache.
	"fleet-day": (&inProcess{
		specs:     []specFile{{path: "benchmark/workloads/fleet-day.json", golden: "benchmark/testdata/fleet-day.txt", seeded: true}},
		parallel:  1,
		warmCache: true,
	}).run,
	// Tick-kernel-bound and bypassing placement: the Fig. 20 ablation, 40
	// binned runs over 5 compiles per op.
	"ablation": (&inProcess{
		specs:    []specFile{{path: "examples/scenarios/fig20-ablation.json", golden: "internal/experiments/testdata/golden/fig20.txt", seeded: true, grid: true}},
		parallel: 2,
		warmupOp: true,
	}).run,
	// Request-level replay: per-request routing and admission, and the power
	// governor on a heterogeneous fleet.
	"replay": (&inProcess{
		specs: []specFile{
			{path: "examples/scenarios/slo-policies.json", golden: "internal/scenario/testdata/golden/slo-policies.txt"},
			{path: "examples/scenarios/power-loop.json", golden: "internal/scenario/testdata/golden/power-loop.txt"},
		},
		parallel: 2,
		warmupOp: true,
	}).run,
	// The campaign daemon and its compile cache, hits and misses.
	"daemon": runDaemon,
}

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; root is the repository root. Exit codes:
// 0 success, 1 a failed op (the result is still printed) or an error, 2 bad
// usage.
func run(root string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Uint64("seed", goldenSeed, "seed of the generated inputs; goldens are checked at 42")
		seconds = fs.Float64("seconds", 25, "how long to measure")
		trace   = fs.Int("trace", 0, "1: serial run with per-layer timing; prints the per-layer metrics")
		out     = fs.String("out", "", "append this run's record as one JSON line to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "benchmark: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	b := &bench{root: root, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, stderr: stderr}
	line, err := w(b)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if b.spans != nil {
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "benchmark: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s\n", path)
	}
	if *out != "" {
		rec := result.Run{
			Line: line, Workload: *name, Seed: *seed, Seconds: *seconds, Trace: b.trace,
			Recorded: time.Now().UTC(), FailedFrac: float64(line.Failed) / float64(line.Attempted), Env: environment(),
		}
		if err := result.Append(*out, rec); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "ops %d, failed %d\n", line.Attempted, line.Failed)
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	if !line.Correct {
		fmt.Fprintln(stderr, "benchmark: some ops failed")
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
