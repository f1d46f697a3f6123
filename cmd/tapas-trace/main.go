// Command tapas-trace records, transforms, imports and inspects workload
// traces — the record/replay pipeline that turns a synthetic (or captured)
// workload into a pinned CSV artifact campaigns can sweep policies,
// climates, and failure schedules over. A spec whose workload.trace pins
// such a file replays it through tapas-campaign.
//
// Usage:
//
//	tapas-trace -export trace.csv -preset quick -seed 42
//	tapas-trace -export trace.csv -spec examples/scenarios/heatwave-sweep.json
//	tapas-trace -export trace.csv -vms trace.vms.csv -preset small
//	tapas-trace -transform chain.json -in trace.csv -out scaled.csv
//	tapas-trace -transform '[{"op":"demand_scale","factor":2}]' -in trace.csv -out scaled.csv
//	tapas-trace -export trace.csv -preset quick -requests-out trace.requests.csv -requests-scale 0.05
//	tapas-trace -import-azure azure-llm.csv -out trace.csv -servers 80
//	tapas-trace -import-azure azure-llm.csv -out trace.csv -requests-out trace.requests.csv
//	tapas-trace -stats examples/scenarios/pinned-small.trace.csv
//
// -export materializes the workload a spec or preset would simulate and
// writes the versioned workload CSV (with -vms, also the flat per-VM table
// that spreadsheet tools ingest directly — the CSV pair). -transform applies
// a replay-time transform chain (inline JSON or a chain file; relative
// splice paths resolve against the chain file's directory) to a recorded
// trace and re-exports it, so transformed traces are themselves pinnable
// artifacts that replay byte-identically to applying the same chain in-spec.
// -import-azure ingests an Azure-LLM-inference-style request log
// (timestamp,endpoint,prompt_tokens,output_tokens) into a replayable trace
// via binned demand reconstruction; with -requests-out the source rows are
// also wired straight through as a request-level replay log (workload.requests)
// instead of being binned away. -export -requests-out generates the synthetic
// request stream of the recorded workload (optionally rate-thinned by
// -requests-scale) for the same purpose. -stats summarizes a recorded trace:
// fleet, kind mix, endpoints, demand percentiles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	tapas "github.com/tapas-sim/tapas"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tapas-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		export   = fs.String("export", "", "record: write the workload CSV to this path")
		vmsOut   = fs.String("vms", "", "with -export: also write the flat per-VM CSV table to this path")
		specPath = fs.String("spec", "", "with -export: record the workload of this scenario spec (single grid point)")
		preset   = fs.String("preset", "", "with -export: record a preset workload: quick | small | large (default quick)")
		seed     = fs.Uint64("seed", 42, "with -export -preset / -import-azure: deterministic workload seed")
		transf   = fs.String("transform", "", "transform: a transform-chain JSON array (inline) or the path of a chain file; applies to -in, re-exports to -out")
		in       = fs.String("in", "", "with -transform: the recorded workload CSV to transform")
		out      = fs.String("out", "", "with -transform / -import-azure: write the resulting workload CSV to this path")
		azure    = fs.String("import-azure", "", "import: ingest an Azure-LLM-inference-style request CSV (timestamp,endpoint,prompt_tokens,output_tokens) into a replayable workload CSV at -out")
		servers  = fs.Int("servers", 80, "with -import-azure: target cluster size the reconstructed workload replays against")
		bin      = fs.Duration("bin", 10*time.Minute, "with -import-azure: demand-reconstruction bin width")
		reqsOut  = fs.String("requests-out", "", "with -export / -import-azure: also write the per-request log CSV (workload.requests replay input) to this path")
		reqScale = fs.Float64("requests-scale", 1, "with -export -requests-out: scale the generated request rate (thin the log so committed artifacts stay small)")
		stats    = fs.String("stats", "", "inspect: summarize a recorded workload CSV")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	modes := 0
	for _, m := range []string{*export, *transf, *azure, *stats} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(stderr, "tapas-trace: exactly one of -export, -transform, -import-azure, -stats is required (see -h)")
		return 2
	}

	// A flag outside its mode would be silently ignored; reject the
	// combination instead (same contract as tapas-sim's -spec conflicts).
	var mode string
	var ok map[string]bool
	switch {
	case *export != "":
		mode, ok = "-export", map[string]bool{"export": true, "vms": true, "spec": true, "preset": true, "seed": true, "requests-out": true, "requests-scale": true}
	case *transf != "":
		mode, ok = "-transform", map[string]bool{"transform": true, "in": true, "out": true}
	case *azure != "":
		mode, ok = "-import-azure", map[string]bool{"import-azure": true, "out": true, "servers": true, "bin": true, "seed": true, "requests-out": true}
	default:
		mode, ok = "-stats", map[string]bool{"stats": true}
	}
	conflict := false
	fs.Visit(func(f *flag.Flag) {
		if !ok[f.Name] {
			fmt.Fprintf(stderr, "tapas-trace: -%s does not apply to %s\n", f.Name, mode)
			conflict = true
		}
	})
	if conflict {
		return 2
	}

	switch {
	case *export != "":
		if *specPath != "" && flagWasSet(fs, "seed") {
			// The spec pins its own seeds; a -seed alongside would be
			// silently ignored.
			fmt.Fprintln(stderr, "tapas-trace: -seed conflicts with -spec (set the seed in the spec instead)")
			return 2
		}
		return runExport(*export, *vmsOut, *specPath, *preset, *seed, *reqsOut, *reqScale, stderr)
	case *transf != "":
		return runTransform(*transf, *in, *out, stderr)
	case *azure != "":
		return runImportAzure(*azure, *out, *servers, *bin, *seed, *reqsOut, stderr)
	default:
		return runStats(*stats, stdout, stderr)
	}
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

// runExport materializes the workload a spec or preset would simulate and
// archives it as the versioned workload CSV (plus, optionally, the flat
// per-VM table and the per-request log for request-level replay).
func runExport(out, vmsOut, specPath, preset string, seed uint64, reqsOut string, reqScale float64, stderr io.Writer) int {
	if specPath != "" && preset != "" {
		fmt.Fprintln(stderr, "tapas-trace: -spec and -preset are mutually exclusive")
		return 2
	}
	var sc tapas.Scenario
	switch {
	case specPath != "":
		spec, err := scenario.Load(specPath)
		if err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		c, err := spec.Campaign(0)
		if err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		if len(c.Points) > 1 {
			fmt.Fprintf(stderr, "tapas-trace: spec %q sweeps axes into %d grid points; -export needs a single workload\n", spec.Name, len(c.Points))
			return 2
		}
		sc = c.Points[0].Scenario
		if sc.Trace != nil {
			fmt.Fprintf(stderr, "tapas-trace: spec %q already replays a recorded trace\n", spec.Name)
			return 2
		}
	default:
		switch preset {
		case "", "quick":
			sc = tapas.QuickScenario()
		case "small":
			sc = tapas.RealClusterScenario()
		case "large":
			sc = tapas.LargeScenario()
		default:
			fmt.Fprintf(stderr, "tapas-trace: unknown preset %q (known: quick, small, large)\n", preset)
			return 2
		}
		sc.Workload.Seed = seed
		sc.Layout.Seed = seed
	}

	wl, err := tapas.GenerateWorkload(sc)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	if err := trace.SaveWorkloadCSV(out, wl); err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	fmt.Fprintf(stderr, "recorded %d VMs / %d endpoints over %v to %s\n",
		len(wl.VMs), len(wl.Endpoints), wl.Config.Duration, out)
	if vmsOut != "" {
		f, err := os.Create(vmsOut)
		if err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		if err := trace.WriteVMsCSV(f, wl.VMs); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote flat VM table to %s\n", vmsOut)
	}
	if reqsOut != "" {
		if reqScale <= 0 {
			fmt.Fprintf(stderr, "tapas-trace: -requests-scale %v must be positive\n", reqScale)
			return 2
		}
		// One Poisson stream per endpoint (rate scaled by -requests-scale:
		// thinning a Poisson process is the same process at the lower rate),
		// merged into one arrival-sorted log with dense sequential IDs — the
		// canonical requests-CSV form workload.requests replays.
		var reqs []llm.Request
		for _, ep := range wl.Endpoints {
			sep := ep
			sep.PeakRPSPerVM *= reqScale
			reqs = append(reqs, sep.Requests(0, wl.Config.Duration, wl.Config.Seed)...)
		}
		sort.Slice(reqs, func(i, j int) bool {
			if reqs[i].Arrival != reqs[j].Arrival {
				return reqs[i].Arrival < reqs[j].Arrival
			}
			return reqs[i].ID < reqs[j].ID
		})
		for i := range reqs {
			reqs[i].ID = int64(i)
		}
		if err := trace.SaveRequestsCSV(reqsOut, reqs); err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d requests (rate scale %g) to %s\n", len(reqs), reqScale, reqsOut)
	}
	return 0
}

// runTransform applies a transform chain to a recorded trace and re-exports
// the result — the CLI twin of the workload.transforms spec field, so a
// transformed trace can be pinned as its own artifact. The chain is either
// inline JSON (starts with "[") or the path of a chain file; relative splice
// paths resolve against the chain file's directory (the working directory
// for inline chains).
func runTransform(chainArg, in, out string, stderr io.Writer) int {
	if in == "" || out == "" {
		fmt.Fprintln(stderr, "tapas-trace: -transform needs both -in (recorded trace) and -out (transformed trace)")
		return 2
	}
	data := []byte(chainArg)
	dir := "."
	if !strings.HasPrefix(strings.TrimSpace(chainArg), "[") {
		b, err := os.ReadFile(chainArg)
		if err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		data = b
		dir = filepath.Dir(chainArg)
	}
	chain, err := transform.Parse(data)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	if len(chain) == 0 {
		fmt.Fprintln(stderr, "tapas-trace: transform chain is empty; nothing to apply")
		return 2
	}
	if err := chain.Load(dir); err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	wl, err := tapas.LoadTrace(in)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	twl, err := chain.Apply(wl)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	if err := trace.SaveWorkloadCSV(out, twl); err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	fmt.Fprintf(stderr, "applied %d-step chain: %d VMs / %d endpoints over %v -> %d VMs / %d endpoints over %v, to %s\n",
		len(chain), len(wl.VMs), len(wl.Endpoints), wl.Config.Duration,
		len(twl.VMs), len(twl.Endpoints), twl.Config.Duration, out)
	return 0
}

// runImportAzure ingests an Azure-LLM-inference-style request log and writes
// the reconstructed replayable workload CSV. With -requests-out it also
// passes the source rows straight through as a request-level replay log
// instead of binning them away.
func runImportAzure(in, out string, servers int, bin time.Duration, seed uint64, reqsOut string, stderr io.Writer) int {
	if out == "" {
		fmt.Fprintln(stderr, "tapas-trace: -import-azure needs -out (reconstructed trace path)")
		return 2
	}
	cfg := trace.AzureImportConfig{Servers: servers, Bin: bin, Seed: seed}
	var (
		wl   *trace.Workload
		reqs []llm.Request
		err  error
	)
	if reqsOut != "" {
		wl, reqs, err = trace.LoadAzureLLMCSVRequests(in, cfg)
	} else {
		wl, err = trace.LoadAzureLLMCSV(in, cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	if err := trace.SaveWorkloadCSV(out, wl); err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	fmt.Fprintf(stderr, "imported %d endpoints / %d SaaS VMs over %v (fleet %d servers) to %s\n",
		len(wl.Endpoints), len(wl.VMs), wl.Config.Duration, wl.Config.Servers, out)
	if reqsOut != "" {
		if err := trace.SaveRequestsCSV(reqsOut, reqs); err != nil {
			fmt.Fprintln(stderr, "tapas-trace:", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d requests to %s\n", len(reqs), reqsOut)
	}
	return 0
}

// runStats summarizes a recorded workload: fleet, kind mix, endpoint sizes,
// and the demand percentiles that tell whether a trace is worth replaying.
func runStats(path string, stdout, stderr io.Writer) int {
	wl, err := tapas.LoadTrace(path)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-trace:", err)
		return 1
	}
	cfg := wl.Config
	iaas, saas, atStart := 0, 0, 0
	customers := map[int]bool{}
	for _, vm := range wl.VMs {
		if vm.Kind == trace.IaaS {
			iaas++
			customers[vm.Customer] = true
		} else {
			saas++
		}
		if vm.Arrival == 0 {
			atStart++
		}
	}
	fmt.Fprintf(stdout, "trace             %s\n", path)
	fmt.Fprintf(stdout, "recorded fleet    %d servers, %v window, seed %d\n", cfg.Servers, cfg.Duration, cfg.Seed)
	fmt.Fprintf(stdout, "generation        occupancy %.2f, demand scale %.2f, SaaS fraction %.2f\n",
		cfg.Occupancy, cfg.DemandScale, cfg.SaaSFraction)
	fmt.Fprintf(stdout, "VMs               %d total: %d IaaS (%d customers), %d SaaS\n",
		len(wl.VMs), iaas, len(customers), saas)
	fmt.Fprintf(stdout, "arrivals          %d resident at t=0, %d during the window\n",
		atStart, len(wl.VMs)-atStart)
	fmt.Fprintf(stdout, "endpoints         %d", len(wl.Endpoints))
	for i, ep := range wl.Endpoints {
		sep := " (VM counts "
		if i > 0 {
			sep = "/"
		}
		fmt.Fprintf(stdout, "%s%d", sep, ep.NumVMs)
	}
	if len(wl.Endpoints) > 0 {
		fmt.Fprint(stdout, ")")
	}
	fmt.Fprintln(stdout)

	// Demand percentiles, sampled per minute over the recorded window: the
	// aggregate SaaS token demand and the aggregate IaaS load the replay
	// will drive.
	window := cfg.Duration
	if window <= 0 {
		window = 24 * time.Hour
	}
	minutes := int(window / time.Minute)
	if minutes < 1 {
		minutes = 1
	}
	saasTok := make([]float64, 0, minutes)
	iaasLoad := make([]float64, 0, minutes)
	for m := 0; m < minutes; m++ {
		t := time.Duration(m) * time.Minute
		tok := 0.0
		for _, ep := range wl.Endpoints {
			p, o := ep.DemandTokens(t, time.Minute)
			tok += p + o
		}
		saasTok = append(saasTok, tok/1000)
		load := 0.0
		for _, vm := range wl.VMs {
			if vm.Kind == trace.IaaS && vm.Active(t) {
				load += vm.Load.At(t)
			}
		}
		iaasLoad = append(iaasLoad, load)
	}
	fmt.Fprintf(stdout, "SaaS demand       p50 %.0f / p90 %.0f / p99 %.0f ktok/min aggregate\n",
		percentile(saasTok, 50), percentile(saasTok, 90), percentile(saasTok, 99))
	fmt.Fprintf(stdout, "IaaS load         p50 %.1f / p90 %.1f / p99 %.1f server-equivalents\n",
		percentile(iaasLoad, 50), percentile(iaasLoad, 90), percentile(iaasLoad, 99))
	return 0
}

// percentile returns the q-th percentile (nearest-rank) of vals.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(q/100*float64(len(s))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
