// Command tapas-sim runs a single cluster simulation under a chosen policy
// and prints a summary.
//
// Usage:
//
//	tapas-sim -policy tapas -hours 24 -mix 0.5 -oversub 0.2
//	tapas-sim -policy baseline -failure power -scale small
//	tapas-sim -spec examples/scenarios/rolling-emergencies.json
//
// With -spec, the scenario comes from a declarative spec file (see
// internal/scenario and cmd/tapas-campaign) and every policy listed in the
// spec runs in order; -policy (when given explicitly) overrides the spec's
// policy list. Specs that sweep axes need tapas-campaign.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	tapas "github.com/tapas-sim/tapas"
	"github.com/tapas-sim/tapas/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tapas-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy   = fs.String("policy", "tapas", "baseline | tapas | any of place,route,config (comma separated)")
		scale    = fs.String("scale", "small", "small (80 servers) | large (~1000 servers)")
		hours    = fs.Float64("hours", 1, "simulated duration in hours")
		mix      = fs.Float64("mix", 0.5, "SaaS fraction of the workload (0–1)")
		oversub  = fs.Float64("oversub", 0, "oversubscription ratio (0.4 = +40% racks)")
		failure  = fs.String("failure", "", "inject emergency: power | cooling")
		seed     = fs.Uint64("seed", 42, "deterministic seed")
		specPath = fs.String("spec", "", "run a declarative scenario spec file instead of the flag-built scenario")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *specPath != "" {
		// The spec fully describes the scenario; a scenario-shaping flag
		// alongside it would be silently ignored, so reject the combination
		// (-policy is the deliberate override: it selects what runs).
		for _, name := range []string{"scale", "hours", "mix", "oversub", "failure", "seed"} {
			if flagWasSet(fs, name) {
				fmt.Fprintf(stderr, "tapas-sim: -%s conflicts with -spec (edit the spec file instead)\n", name)
				return 2
			}
		}
		return runSpec(*specPath, *policy, flagWasSet(fs, "policy"), stdout, stderr)
	}

	// A duration of NaN hours, or one past time.Duration's range, would
	// convert to an arbitrary duration, and a NaN or infinite ratio to an
	// arbitrary rack count.
	if d := *hours * float64(time.Hour); !(d > 0 && d < math.MaxInt64) {
		fmt.Fprintf(stderr, "tapas-sim: -hours %v is not a positive duration of at most %.0f hours\n", *hours, math.Floor(time.Duration(math.MaxInt64).Hours()))
		return 2
	}
	if !(*oversub >= 0) || math.IsInf(*oversub, 1) {
		fmt.Fprintf(stderr, "tapas-sim: -oversub %v is not a finite ratio of at least 0\n", *oversub)
		return 2
	}

	var sc tapas.Scenario
	if *scale == "large" {
		sc = tapas.LargeScenario()
	} else {
		sc = tapas.RealClusterScenario()
	}
	sc.Duration = time.Duration(*hours * float64(time.Hour))
	sc.Workload.SaaSFraction = *mix
	sc.Workload.Seed = *seed
	sc.Oversubscribe = *oversub
	switch *failure {
	case "power":
		sc.Failures = []tapas.FailureEvent{{Kind: tapas.PowerFailure, At: sc.Duration / 4, Duration: sc.Duration / 2}}
	case "cooling":
		sc.Failures = []tapas.FailureEvent{{Kind: tapas.CoolingFailure, At: sc.Duration / 4, Duration: sc.Duration / 2}}
	case "":
	default:
		fmt.Fprintf(stderr, "tapas-sim: unknown failure %q\n", *failure)
		return 2
	}

	pol, err := scenario.ParsePolicy(*policy)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-sim:", err)
		return 2
	}

	start := time.Now()
	res, err := tapas.Run(sc, pol.New())
	if err != nil {
		fmt.Fprintln(stderr, "tapas-sim:", err)
		return 1
	}
	printSummary(stdout, sc, res, time.Since(start))
	return 0
}

// runSpec executes a single-point scenario spec under each of its policies,
// compiling the scenario once and sharing it across the runs.
func runSpec(path, policyFlag string, policySet bool, stdout, stderr io.Writer) int {
	spec, err := scenario.Load(path)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-sim:", err)
		return 1
	}
	if len(spec.Axes) > 0 {
		fmt.Fprintf(stderr, "tapas-sim: spec %q sweeps axes; run it with tapas-campaign\n", spec.Name)
		return 2
	}
	if policySet {
		spec.Policies = []string{policyFlag}
	}
	c, err := spec.Campaign(0)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-sim:", err)
		return 1
	}
	sc := c.Points[0].Scenario
	cs, err := tapas.Compile(sc)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-sim:", err)
		return 1
	}
	for i, pol := range c.Policies {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		start := time.Now()
		res, err := cs.Run(pol.New())
		if err != nil {
			fmt.Fprintln(stderr, "tapas-sim:", err)
			return 1
		}
		printSummary(stdout, sc, res, time.Since(start))
	}
	return 0
}

func printSummary(w io.Writer, sc tapas.Scenario, res *tapas.Result, wall time.Duration) {
	fmt.Fprintf(w, "policy            %s\n", res.Policy)
	fmt.Fprintf(w, "simulated         %v at %v ticks (%d ticks, wall %v)\n",
		sc.Duration, res.Tick, res.Ticks, wall.Round(time.Millisecond))
	fmt.Fprintf(w, "max GPU temp      %.1f °C (P99 %.1f)\n", res.MaxTemp(), res.PercentileMaxTemp(99))
	fmt.Fprintf(w, "peak row power    %.1f kW (P99 %.1f)\n", res.PeakPower()/1000, res.PercentilePeakPower(99)/1000)
	fmt.Fprintf(w, "thermal capping   %.2f%% of server-time\n", res.ThrottleFrac()*100)
	fmt.Fprintf(w, "power capping     %.2f%% of server-time\n", res.PowerCapFrac()*100)
	fmt.Fprintf(w, "SaaS service rate %.3f, SLO violations %.2f%%, quality %.3f\n",
		res.ServiceRate(), res.SLOViolationRate()*100, res.AvgQuality())
	fmt.Fprintf(w, "IaaS perf loss    %.1f%%\n", res.IaaSPerfLoss()*100)
}

func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
