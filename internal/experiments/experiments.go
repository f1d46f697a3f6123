// Package experiments contains one runner per table and figure of the
// paper's characterization (§2–§3) and evaluation (§5). Each runner
// regenerates the corresponding rows/series from the simulator and models in
// this repository, at a configurable scale, and returns a textual Report.
//
// cmd/tapas-bench executes, times and profiles them, at paper scale or
// reduced by -scale.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

// Params configures an experiment run.
type Params struct {
	// Scale multiplies cluster size and duration toward paper scale
	// (1.0 = the paper's setup; benchmarks use ~0.1).
	Scale float64
	Seed  uint64
	// Parallel bounds the worker pool for multi-run experiments (fig11's
	// random placements, fig20's ablation grid, table2's emergency matrix).
	// ≤ 0 selects GOMAXPROCS. Reports are byte-identical across worker
	// counts: every run is seeded per job and collected in job order.
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

// scaleAisles is the one aisle-scaling rule (round to nearest, floor 2)
// shared by scaledLayout and ScaleLarge.
func scaleAisles(aisles int, scale float64) int {
	n := int(float64(aisles)*scale + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// scaledLayout returns the large-cluster layout scaled toward paper size.
func scaledLayout(p Params) layout.Config {
	lc := layout.DefaultConfig()
	lc.Aisles = scaleAisles(lc.Aisles, p.Scale)
	lc.Seed = p.Seed
	return lc
}

// ScaleLarge applies the quick-run scaling rules of the large preset in
// place: aisle count and duration shrink proportionally, and sub-half-scale
// runs shift to the 9 h diurnal-peak start offset unless the caller pinned
// an offset explicitly. The 6 h duration floor guards the preset's paper
// week; a caller-chosen duration (explicitDuration) scales with only a
// 5-minute floor so short campaigns stay short. Shared with the
// scenario-spec pipeline so spec campaigns reproduce the runners'
// scenarios exactly.
func ScaleLarge(sc *sim.Scenario, scale float64, explicitOffset, explicitDuration bool) {
	sc.Layout.Aisles = scaleAisles(sc.Layout.Aisles, scale)
	floor := 6 * time.Hour
	if explicitDuration {
		floor = 5 * time.Minute
	}
	dur := time.Duration(float64(sc.Duration) * scale)
	if dur < floor {
		dur = floor
	}
	sc.Duration = dur
	sc.Workload.Duration = dur
	sc.Workload.Servers = sc.Layout.Aisles * 2 * sc.Layout.RacksPerRow * sc.Layout.ServersPerRack
	if scale < 0.5 && !explicitOffset {
		sc.StartOffset = 9 * time.Hour // short runs still cover the daily peak
	}
}

// ScaleSmall applies the quick-run scaling rules of the small (real-cluster)
// preset in place: sub-half-scale runs shorten to the 20-minute smoke
// window, or — when the caller set a duration explicitly — scale it
// proportionally with a 5-minute floor.
func ScaleSmall(sc *sim.Scenario, scale float64, explicitDuration bool) {
	if scale >= 0.5 {
		return
	}
	d := 20 * time.Minute
	if explicitDuration {
		d = time.Duration(float64(sc.Duration) * scale)
		if d < 5*time.Minute {
			d = 5 * time.Minute
		}
	}
	sc.Duration = d
	sc.Workload.Duration = d
}

// scaledScenario returns the paper's large-scale evaluation scenario at the
// requested scale.
func scaledScenario(p Params) sim.Scenario {
	sc := sim.DefaultScenario()
	sc.Layout.Seed = p.Seed
	sc.Workload.Seed = p.Seed
	ScaleLarge(&sc, p.Scale, false, false)
	return sc
}

// smallScenario returns the real-cluster scenario (80 servers, 1 h).
func smallScenario(p Params) sim.Scenario {
	sc := sim.SmallScenario()
	sc.Workload.Seed = p.Seed
	ScaleSmall(&sc, p.Scale, false)
	return sc
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
