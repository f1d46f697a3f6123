// Package experiments contains one runner per table and figure of the
// paper's characterization (§2–§3) and evaluation (§5). Each runner
// regenerates the corresponding rows/series from the simulator and models in
// this repository, at a configurable scale, and returns a textual Report.
// The simulation-backed figures (Figs. 10 and 18–21, Table 2) build
// scenario specs and run them as campaigns (internal/scenario), the path
// tapas-campaign and the campaign daemon take; their runners only format
// the results.
//
// cmd/tapas-bench executes, times and profiles them, at paper scale or
// reduced by -scale.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

// Params configures an experiment run.
type Params struct {
	// Scale multiplies cluster size and duration toward paper scale
	// (1.0 = the paper's setup; benchmarks use ~0.1).
	Scale float64
	Seed  uint64
	// Parallel bounds the worker pool for multi-run experiments: fig11's
	// random placements and the spec campaigns of Figs. 10 and 18–21 and
	// Table 2. ≤ 0 selects GOMAXPROCS. Reports are byte-identical across
	// worker counts: every run is seeded per job and collected in job order.
	Parallel int
}

// DefaultParams runs at paper scale.
func DefaultParams() Params { return Params{Scale: 1.0, Seed: 42} }

// QuickParams is the reduced scale used by benchmarks and smoke tests.
func QuickParams() Params { return Params{Scale: 0.12, Seed: 42} }

// Report is the textual result of one experiment.
type Report struct {
	ID    string
	Title string
	Lines []string
	Notes []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "%s\n", l)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Spec registers an experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(Params) (*Report, error)
}

// All lists every experiment in paper order.
var All = []Spec{
	{"table1", "Impact of configuration parameters (Table 1)", Table1},
	{"fig1", "Datacenter layout inlet heatmap (Fig. 1)", Fig1},
	{"fig2", "Inlet vs outside temperature timeline (Fig. 2)", Fig2},
	{"fig3", "Inlet vs outside regression (Fig. 3)", Fig3},
	{"fig4", "Inlet distribution across rows/racks/height (Fig. 4)", Fig4},
	{"fig5", "Inlet vs datacenter load (Fig. 5)", Fig5},
	{"fig6", "GPU temperature and power timeline (Fig. 6)", Fig6},
	{"fig7", "GPU temperature regression (Fig. 7)", Fig7},
	{"fig8", "Per-GPU temperature heterogeneity (Fig. 8)", Fig8},
	{"fig9", "Fleet GPU temperature distribution (Fig. 9)", Fig9},
	{"fig10", "Row power imbalance (Fig. 10)", Fig10},
	{"fig11", "Random placement temperature/power spread (Fig. 11)", Fig11},
	{"fig12", "VM lifetime and endpoint size CDFs (Fig. 12)", Fig12},
	{"fig13", "Diurnal VM load and row power (Fig. 13)", Fig13},
	{"fig14", "Power prediction error CDFs (Fig. 14)", Fig14},
	{"fig15", "Per-phase temperature/power by configuration (Fig. 15)", Fig15},
	{"fig16", "Goodput vs temperature/power Pareto (Fig. 16)", Fig16},
	{"fig18", "Real-cluster peak power, Baseline vs TAPAS (Fig. 18)", Fig18},
	{"fig19", "Week-scale max temperature and peak power (Fig. 19)", Fig19},
	{"fig20", "Ablation across policies and SaaS/IaaS mixes (Fig. 20)", Fig20},
	{"fig21", "Oversubscription capping sweep (Fig. 21)", Fig21},
	{"table2", "Emergency management (Table 2)", Table2},
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Spec, bool) {
	for _, s := range All {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// --- shared scenario builders -------------------------------------------

// largeSpec is the paper's large-scale evaluation setup (the ~1000-server
// preset over a paper week, Baseline vs TAPAS) seeded with p.Seed. Its
// campaign takes p.Scale: see runSpec.
func largeSpec(id string, p Params) *scenario.Spec {
	return &scenario.Spec{Name: id, Seed: &p.Seed}
}

// smallSpec is the paper's 80-server real-cluster setup. A spec's seed sets
// the layout seed too, but the testbed is fixed hardware: its layout keeps
// the preset's seed whatever p.Seed is.
func smallSpec(id string, p Params) *scenario.Spec {
	layoutSeed := layout.SmallConfig().Seed
	return &scenario.Spec{Name: id, Seed: &p.Seed,
		Layout: scenario.LayoutSpec{Preset: "small", Seed: &layoutSeed}}
}

// runSpec expands a figure's spec at p.Scale (0 keeps paper scale; a scale
// outside [0, 1] is an error) and runs it on p's worker pool, through cache
// when non-nil.
func runSpec(s *scenario.Spec, p Params, cache *sim.CompileCache) (*scenario.Result, error) {
	c, err := s.Campaign(p.Scale)
	if err != nil {
		return nil, err
	}
	return c.Run(scenario.RunOptions{Parallel: p.Parallel, Cache: cache})
}

// largeDC builds the datacenter of the one-point large spec, the cluster
// the characterization figures draw.
func largeDC(p Params) *layout.Datacenter {
	c, err := largeSpec("layout", p).Campaign(p.Scale)
	if err != nil {
		panic(err) // a fixed spec with no files to load cannot fail to expand
	}
	return mustDC(c.Points[0].Scenario.Layout)
}

// mustDC builds a datacenter or panics (generation only fails on invalid
// dimensions, which the builders never produce).
func mustDC(cfg layout.Config) *layout.Datacenter {
	dc, err := layout.New(cfg)
	if err != nil {
		panic(err)
	}
	return dc
}

// cdfRow formats selected percentiles of a sample set.
func cdfRow(name string, xs []float64, percentile func([]float64, float64) float64) string {
	return fmt.Sprintf("%-14s P10=%7.2f P25=%7.2f P50=%7.2f P75=%7.2f P90=%7.2f P99=%7.2f",
		name, percentile(xs, 10), percentile(xs, 25), percentile(xs, 50),
		percentile(xs, 75), percentile(xs, 90), percentile(xs, 99))
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// genWorkload builds a workload or panics (only invalid configs fail).
func genWorkload(cfg trace.WorkloadConfig) *trace.Workload {
	w, err := trace.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}
