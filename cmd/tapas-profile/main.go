// Command tapas-profile runs the offline profiling phase (§4.5) against a
// generated datacenter and prints the fitted models and their accuracy, plus
// the LLM configuration profile and Pareto frontier sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/thermal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns the
// process exit code (0 ok, 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tapas-profile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale = fs.String("scale", "small", "small | large datacenter")
		seed  = fs.Uint64("seed", 42, "layout seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var cfg layout.Config
	switch *scale {
	case "small":
		cfg = layout.SmallConfig()
	case "large":
		cfg = layout.DefaultConfig()
	default:
		fmt.Fprintf(stderr, "tapas-profile: unknown -scale %q (want small or large)\n", *scale)
		return 2
	}
	cfg.Seed = *seed
	dc, err := layout.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-profile:", err)
		return 1
	}
	prof, err := core.BuildProfiles(dc)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-profile:", err)
		return 1
	}

	fmt.Fprintf(stdout, "datacenter %s: %d aisles, %d rows, %d servers (%s)\n",
		cfg.Name, len(dc.Aisles), len(dc.Rows), len(dc.Servers), cfg.GPU)

	// Held-out accuracy of the thermal models.
	rng := rand.New(rand.NewPCG(*seed, 99))
	var inletPred, inletAct, gpuPred, gpuAct []float64
	for i := 0; i < 500; i++ {
		srv := dc.Servers[rng.IntN(len(dc.Servers))]
		o := rng.Float64()*38 - 2
		l := rng.Float64()
		inletPred = append(inletPred, prof.Inlet.Predict(srv.ID, o, l))
		inletAct = append(inletAct, thermal.InletTemp(srv, o, l, 0))
		g := rng.IntN(srv.GPU.GPUsPerServer)
		inlet := 18 + rng.Float64()*14
		frac := rng.Float64()
		gpuPred = append(gpuPred, prof.GPUTemp.Predict(srv.ID, g, inlet, frac))
		gpuAct = append(gpuAct, thermal.GPUTemp(srv, g, inlet, frac))
	}
	fmt.Fprintf(stdout, "inlet model:    piecewise surface per server, MAE %.2f °C\n", regress.MAE(inletPred, inletAct))
	fmt.Fprintf(stdout, "GPU temp model: linear per GPU, MAE %.2f °C\n", regress.MAE(gpuPred, gpuAct))
	af, pw := prof.AirflowFor(cfg.GPU), prof.PowerFor(cfg.GPU)
	fmt.Fprintf(stdout, "airflow model:  %.0f CFM idle → %.0f CFM at full load\n", af.IdleCFM, af.MaxCFM)
	fmt.Fprintf(stdout, "power model:    %.0f W idle → %.0f W at full load\n", pw.Predict(0), pw.Predict(1))

	llmProf := llm.DefaultProfile(cfg.GPU)
	fmt.Fprintf(stdout, "\nLLM profile: %d configurations, SLOs TTFT=%v TBT=%v\n",
		len(llmProf.Entries), llmProf.SLOs.TTFT.Round(0), llmProf.SLOs.TBT.Round(0))
	for _, m := range []llm.ModelSize{llm.Llama70B, llm.Llama13B, llm.Llama7B} {
		frontier := llmProf.ParetoFrontier(m)
		best := frontier[0]
		for _, e := range frontier {
			if e.Goodput > best.Goodput {
				best = e
			}
		}
		fmt.Fprintf(stdout, "  %-4s frontier: %2d points, top goodput %6.0f tok/s at %s (quality %.2f)\n",
			m, len(frontier), best.Goodput, best.Config, best.Quality)
	}
	return 0
}
