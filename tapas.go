// Package tapas is the public API of the TAPAS reproduction: a thermal- and
// power-aware scheduling framework for LLM inference clusters, after
// "TAPAS: Thermal- and Power-Aware Scheduling for LLM Inference in Cloud
// Platforms" (ASPLOS 2025).
//
// The package wraps the internal substrates (datacenter layout and thermal/
// power physics, LLM serving models, trace generation, and the discrete-time
// simulator) behind a small surface:
//
//	sc := tapas.RealClusterScenario()
//	base, _ := tapas.Run(sc, tapas.NewBaseline())
//	full, _ := tapas.Run(sc, tapas.NewTAPAS())
//	fmt.Printf("peak power −%.0f%%\n", (1-full.PeakPower()/base.PeakPower())*100)
//
// Every experiment from the paper's evaluation is runnable through
// Experiments / RunExperiment (also exposed by cmd/tapas-bench).
package tapas

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/experiments"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// Core simulation types, re-exported from the simulation engine.
type (
	// Scenario fully describes one simulation run: layout, workload,
	// duration, oversubscription and failure schedule.
	Scenario = sim.Scenario
	// Result carries the metrics of a completed run.
	Result = sim.Result
	// Policy is the scheduling interface (placement, routing,
	// configuration, capping) implemented by TAPAS and the baselines.
	Policy = sim.Policy
	// FailureEvent schedules a cooling or power emergency.
	FailureEvent = sim.FailureEvent
	// FailureKind distinguishes cooling from power failures.
	FailureKind = sim.FailureKind
	// LayoutConfig parameterizes datacenter generation.
	LayoutConfig = layout.Config
	// WorkloadConfig parameterizes trace generation.
	WorkloadConfig = trace.WorkloadConfig
	// Workload is a materialized cluster workload — the VM arrival trace
	// plus the SaaS endpoint set — and the unit of record/replay: export one
	// with ExportTrace, pin it in a repository, and replay it via
	// Scenario.Trace or the workload.trace spec field.
	Workload = trace.Workload
	// Region is a deployment climate preset.
	Region = trace.Region
)

// Failure kinds (§5.4): a cooling failure limits aisle airflow to 90% of
// provisioned; a power failure limits row power to 75%.
const (
	CoolingFailure = sim.CoolingFailure
	PowerFailure   = sim.PowerFailure
)

// Climate presets for the outside-temperature generator.
var (
	RegionHot       = trace.RegionHot
	RegionTemperate = trace.RegionTemperate
	RegionCool      = trace.RegionCool
)

// NewTAPAS returns the full TAPAS policy: thermal/power-aware placement,
// request routing, and instance configuration (§4).
func NewTAPAS() Policy { return core.NewFull() }

// NewBaseline returns the thermal- and power-oblivious baseline (§5.1):
// packing placement, least-queue routing, no reconfiguration, uniform caps.
func NewBaseline() Policy { return core.NewBaseline() }

// NewVariant returns an ablation variant with the selected TAPAS levers
// (Fig. 20); all false is the Baseline, all true is TAPAS.
func NewVariant(place, route, config bool) Policy {
	if !place && !route && !config {
		return core.NewBaseline()
	}
	return core.New(core.Options{Place: place, Route: route, Config: config})
}

// CompiledScenario holds a scenario's run-invariant artifacts (layout,
// workload, profiles, thermal tables, seeded history), built once by Compile
// and shared read-only by any number of concurrent Runs. The weather is a
// run input: each run builds its outside temperature from its own Region and
// StartOffset.
type CompiledScenario = sim.CompiledScenario

// Compile builds a scenario's run-invariant artifacts once. Evaluating
// several policies (or failure schedules or climates, via
// CompiledScenario.ForScenario) over the same scenario through the compiled
// object skips the per-run regeneration that Run performs, with
// byte-identical results.
func Compile(sc Scenario) (*CompiledScenario, error) { return sim.Compile(sc) }

// Run executes a scenario under a policy, compiling it first; use Compile
// plus CompiledScenario.Run to amortize compilation over many runs.
func Run(sc Scenario, pol Policy) (*Result, error) { return sim.Run(sc, pol) }

// LargeScenario returns the paper's large-scale setup: ~1000 A100 servers,
// 50/50 IaaS/SaaS, one week at one-minute ticks.
func LargeScenario() Scenario { return sim.DefaultScenario() }

// RealClusterScenario returns the paper's real-cluster setup: 80 servers in
// two rows for one hour at the diurnal peak.
func RealClusterScenario() Scenario { return sim.SmallScenario() }

// QuickScenario returns a fast small scenario for demos and smoke tests.
func QuickScenario() Scenario {
	sc := sim.SmallScenario()
	sc.Duration = 20 * time.Minute
	return sc
}

// GenerateWorkload materializes the workload a scenario would simulate —
// the replayed trace when Scenario.Trace is set, otherwise the synthetic
// generator's output for the scenario's fleet (layout plus oversubscribed
// racks), exactly as Compile builds it. Record it with ExportTrace and the
// same scenario replays it byte-identically.
func GenerateWorkload(sc Scenario) (*Workload, error) { return sim.GenerateWorkload(sc) }

// ExportTrace writes a workload as a versioned record/replay CSV (see
// cmd/tapas-trace and the trace CSV schema in the README). LoadTrace
// inverts it losslessly.
func ExportTrace(w io.Writer, wl *Workload) error { return trace.WriteWorkloadCSV(w, wl) }

// LoadTrace reads a workload trace CSV recorded by ExportTrace or
// tapas-trace -export; set the result as Scenario.Trace to replay it.
func LoadTrace(path string) (*Workload, error) { return trace.LoadWorkloadCSV(path) }

// TransformChain is a composable replay-time transform pipeline over a
// recorded Workload: time_warp, demand_scale, endpoint_filter, jitter, and
// splice steps, each a pure deterministic Workload -> Workload function with
// a canonical JSON encoding. Set it as Scenario.TraceTransforms (applied
// inside Compile), the workload.transforms spec field, or apply it directly
// with ApplyTransforms; all three produce byte-identical replays.
type TransformChain = transform.Chain

// ParseTransforms decodes and validates a transform chain from its canonical
// JSON form (a `[{"op": ...}, ...]` array). Unknown ops and fields are
// rejected. Chains containing splice steps additionally need
// TransformChain.Load to resolve the overlay trace before use.
func ParseTransforms(data []byte) (TransformChain, error) { return transform.Parse(data) }

// ApplyTransforms runs a transform chain over a recorded workload and
// returns the transformed copy; the input workload is never mutated.
func ApplyTransforms(c TransformChain, wl *Workload) (*Workload, error) { return c.Apply(wl) }

// AzureImportConfig parameterizes ImportAzureLLMCSV's demand reconstruction.
type AzureImportConfig = trace.AzureImportConfig

// ImportAzureLLMCSV ingests an Azure-LLM-inference-style request log
// (timestamp,endpoint,prompt_tokens,output_tokens rows) and reconstructs a
// replayable Workload via binned demand reconstruction — the ingestion path
// for the production trace formats the paper evaluates against. See
// cmd/tapas-trace -import-azure.
func ImportAzureLLMCSV(r io.Reader, cfg AzureImportConfig) (*Workload, error) {
	return trace.ReadAzureLLMCSV(r, cfg)
}

// ScenarioSpec is a declarative JSON scenario specification: one simulation
// setup (layout scale and A100/H100 mix, workload mix, weather,
// oversubscription, emergency schedule, policy set) plus optional sweep axes
// that expand it into a campaign grid. See examples/scenarios/ and
// cmd/tapas-campaign.
type ScenarioSpec = scenario.Spec

// CampaignParams configures a campaign execution.
type CampaignParams struct {
	// Scale overrides the spec's scale when positive (1.0 = paper scale).
	Scale float64
	// Parallel bounds the worker pool (≤ 0 selects GOMAXPROCS); reports are
	// byte-identical across worker counts.
	Parallel int
}

// LoadScenarioSpec reads and validates a scenario spec file.
func LoadScenarioSpec(path string) (*ScenarioSpec, error) { return scenario.Load(path) }

// ParseScenarioSpec decodes and validates a scenario spec. Unknown fields
// are rejected so typos fail loudly.
func ParseScenarioSpec(data []byte) (*ScenarioSpec, error) { return scenario.Parse(data) }

// RunCampaign expands a scenario spec into its sweep grid, compiles each
// unique scenario once, fans every (scenario, policy) run out across the
// worker pool, and writes the spec's report (text grid, CSV, or JSON) to w.
func RunCampaign(spec *ScenarioSpec, p CampaignParams, w io.Writer) error {
	c, err := spec.Campaign(p.Scale)
	if err != nil {
		return err
	}
	res, err := c.Run(scenario.RunOptions{Parallel: p.Parallel})
	if err != nil {
		return err
	}
	_, err = res.WriteTo(w)
	return err
}

// ExperimentIDs lists every reproducible table/figure in paper order.
func ExperimentIDs() []string {
	out := make([]string, len(experiments.All))
	for i, s := range experiments.All {
		out[i] = s.ID
	}
	return out
}

// ExperimentTitle returns the human-readable title of an experiment.
func ExperimentTitle(id string) (string, bool) {
	s, ok := experiments.Lookup(id)
	return s.Title, ok
}

// ExperimentParams configures experiment regeneration.
type ExperimentParams struct {
	// Scale multiplies cluster size and duration (1.0 = paper scale; 0
	// defaults to 1.0). A scale outside [0, 1] is an error.
	Scale float64
	// Seed drives all deterministic generators.
	Seed uint64
	// Parallel bounds the worker pool used by multi-run experiments and by
	// RunExperiments' cross-experiment fan-out. ≤ 0 selects GOMAXPROCS; 1
	// forces fully sequential execution. Reports are byte-identical across
	// worker counts.
	Parallel int
}

// RunExperiment regenerates one of the paper's tables/figures and writes the
// report to w. scale 1.0 is paper scale; smaller values shrink cluster size
// and duration proportionally (0.12 is used by the benchmarks).
// Multi-run experiments fan their independent simulations out across
// GOMAXPROCS workers; use RunExperimentWith to bound the pool.
func RunExperiment(id string, scale float64, seed uint64, w io.Writer) error {
	return RunExperimentWith(id, ExperimentParams{Scale: scale, Seed: seed}, w)
}

// RunExperimentWith is RunExperiment with explicit parallelism control.
func RunExperimentWith(id string, p ExperimentParams, w io.Writer) error {
	spec, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("tapas: unknown experiment %q (known: %v)", id, ExperimentIDs())
	}
	if !(p.Scale >= 0 && p.Scale <= 1) {
		return fmt.Errorf("tapas: experiment %s: scale %v is outside [0, 1]", id, p.Scale)
	}
	if p.Scale == 0 {
		p.Scale = 1
	}
	rep, err := spec.Run(experiments.Params{Scale: p.Scale, Seed: p.Seed, Parallel: p.Parallel})
	if err != nil {
		return fmt.Errorf("tapas: experiment %s: %w", id, err)
	}
	_, err = rep.WriteTo(w)
	return err
}

// RunExperiments regenerates several experiments, fanning them out across
// the worker pool, and writes the reports to w in the order of ids — the
// output is byte-identical to running them one by one. Each report is
// buffered in full before anything is written, so a failure in any
// experiment leaves w untouched.
//
// Parallel bounds the total number of concurrent simulations: with several
// ids the fan-out happens across experiments and each experiment runs its
// own jobs sequentially, so the pool is never multiplied. (A single id
// passes Parallel through to the experiment's internal fan-out instead.)
func RunExperiments(ids []string, p ExperimentParams, w io.Writer) error {
	child := p
	if len(ids) > 1 {
		child.Parallel = 1
	}
	bufs, err := sim.RunParallel(len(ids), p.Parallel, func(_, job int) (*bytes.Buffer, error) {
		var b bytes.Buffer
		if err := RunExperimentWith(ids[job], child, &b); err != nil {
			return nil, err
		}
		return &b, nil
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
