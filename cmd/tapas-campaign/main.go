// Command tapas-campaign runs declarative scenario campaigns: each spec file
// expands into its sweep grid, every unique scenario compiles once, and all
// runs fan out across a bounded worker pool. Reports go to stdout (in
// argument order), timing to stderr, so stdout is byte-identical for any
// -parallel value.
//
// Campaigns execute through the same scheduler the tapas-serve daemon uses,
// sharing one content-addressed compile cache across all spec files — specs
// whose grids overlap (or back-to-back invocations of the same spec in one
// process) compile each unique scenario once.
//
// Usage:
//
//	tapas-campaign examples/scenarios/fig20-ablation.json
//	tapas-campaign -parallel 4 -scale 0.12 specs/*.json
//	tapas-campaign -format csv examples/scenarios/heatwave-sweep.json
//	tapas-campaign -progress examples/scenarios/heatwave-sweep.json
//	tapas-campaign -validate examples/scenarios/*.json
//	tapas-campaign -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tapas-campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for compiles and runs (1 = sequential)")
		scale    = fs.Float64("scale", 0, "override the spec's scale (0 keeps it; 1.0 = paper scale)")
		format   = fs.String("format", "", "override the spec's report format: text | csv | json")
		progress = fs.Bool("progress", false, "stream per-run progress to stderr while campaigns execute")
		validate = fs.Bool("validate", false, "parse and validate specs without running anything")
		list     = fs.Bool("list", false, "list sweepable axis params and report metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "axis params:")
		for _, p := range scenario.AxisParams() {
			fmt.Fprintf(stdout, "  %s\n", p)
		}
		fmt.Fprintln(stdout, "metrics:")
		for _, id := range scenario.MetricIDs() {
			fmt.Fprintf(stdout, "  %s\n", id)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "tapas-campaign: no spec files (see -h)")
		return 2
	}
	switch *format {
	case "", "text", "csv", "json":
	default:
		fmt.Fprintf(stderr, "tapas-campaign: unknown -format %q\n", *format)
		return 2
	}

	// One scheduler for the whole invocation: its compile cache is shared
	// across spec files, and campaigns run one at a time in argument order so
	// stdout stays deterministic.
	sched := serve.NewScheduler(serve.SchedulerConfig{
		QueueDepth: fs.NArg() + 1,
		Parallel:   *parallel,
	})
	defer sched.Shutdown(context.Background())

	for _, path := range fs.Args() {
		spec, err := scenario.Load(path)
		if err != nil {
			fmt.Fprintln(stderr, "tapas-campaign:", err)
			return 1
		}
		if *format != "" {
			spec.Report.Format = *format
		}
		if *validate {
			c, err := spec.Campaign(*scale)
			if err != nil {
				fmt.Fprintln(stderr, "tapas-campaign:", err)
				return 1
			}
			fmt.Fprintf(stderr, "%s: ok (%d points × %d policies = %d runs)\n",
				path, len(c.Points), len(c.Policies), c.Runs())
			continue
		}
		start := time.Now()
		job, err := sched.Submit(spec, *scale)
		if err != nil {
			fmt.Fprintln(stderr, "tapas-campaign:", err)
			return 1
		}
		if *progress {
			streamProgress(job, stderr)
		}
		if err := job.Wait(context.Background()); err != nil {
			fmt.Fprintln(stderr, "tapas-campaign:", err)
			return 1
		}
		if _, err := stdout.Write(job.Report()); err != nil {
			fmt.Fprintln(stderr, "tapas-campaign:", err)
			return 1
		}
		_, total, scenarios := job.Progress()
		fmt.Fprintf(stderr, "%-24s %3d runs (%d scenarios) in %v\n",
			strings.TrimSuffix(spec.Name, "\n"), total, scenarios,
			time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// streamProgress follows the job's event log, printing progress and terminal
// events to w until the job finishes.
func streamProgress(job *serve.Job, w io.Writer) {
	i := 0
	for {
		evs, changed, terminal := job.EventsSince(i)
		for _, ev := range evs {
			switch ev.Type {
			case "start":
				fmt.Fprintf(w, "%s: %d points × %d policies = %d runs\n",
					ev.Name, ev.Points, ev.Policies, ev.Runs)
			case "progress":
				fmt.Fprintf(w, "  %d/%d runs\n", ev.Done, ev.Total)
			case "done":
				if ev.Error != "" {
					fmt.Fprintf(w, "  %s: %s\n", ev.Status, ev.Error)
				}
			}
		}
		i += len(evs)
		if terminal {
			return
		}
		<-changed
	}
}
