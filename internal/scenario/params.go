package scenario

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// kind is the JSON value a parameter takes.
type kind uint8

const (
	number   kind = iota // a JSON number
	whole                // a JSON number without a fractional part
	text                 // a JSON string
	duration             // a JSON string holding a Go duration ("13h")
)

// bounds is the range of values a parameter accepts, with the phrase that
// explains a refusal. The zero bounds accept every value.
type bounds struct {
	ok  func(float64) bool
	why string
}

var (
	fraction     = bounds{func(f float64) bool { return f >= 0 && f <= 1 }, "out of [0,1]"}
	openFraction = bounds{func(f float64) bool { return f > 0 && f <= 1 }, "out of (0,1]"}
	// The trace generator and DemandScale read 0 as "use the default", so a
	// zero would simulate something else under its label.
	positive    = bounds{func(f float64) bool { return f > 0 }, "must be positive"}
	nonNegative = bounds{func(f float64) bool { return f >= 0 }, "must not be negative"}
	atLeastOne  = bounds{func(f float64) bool { return f >= 1 }, "must be at least 1"}
)

// param is one scenario parameter: the value kind it takes, the range it
// accepts and the sim.Scenario field it writes, through exactly one of set
// (number and whole kinds), setDur (duration), parse (text, which may
// refuse the string) or tune (a number written into the single
// workload.transforms step of kind op).
type param struct {
	kind      kind
	valid     bounds
	fieldOnly bool // a spec field that no axis sweeps

	set    func(sc *sim.Scenario, f float64)
	setDur func(sc *sim.Scenario, d time.Duration)
	parse  func(sc *sim.Scenario, s string) error
	op     string
	tune   func(s transform.Step, f float64)
}

// params declares each parameter a sweep axis sets, with its kind, range and
// target written once. A spec field of the same name, and each fieldOnly
// layout dimension, goes through the same entry before preset scaling
// (baseScenario), and Validate checks the fields by applying them to a
// scratch scenario. Axes apply their entries to each grid point after
// scaling, in spec order, and are checked there (expand).
var params = map[string]param{
	"layout.aisles":               {kind: whole, valid: atLeastOne, fieldOnly: true, set: func(sc *sim.Scenario, f float64) { sc.Layout.Aisles = int(f) }},
	"layout.racks_per_row":        {kind: whole, valid: atLeastOne, fieldOnly: true, set: func(sc *sim.Scenario, f float64) { sc.Layout.RacksPerRow = int(f) }},
	"layout.servers_per_rack":     {kind: whole, valid: atLeastOne, fieldOnly: true, set: func(sc *sim.Scenario, f float64) { sc.Layout.ServersPerRack = int(f) }},
	"layout.mix_fraction":         {kind: number, valid: fraction, set: func(sc *sim.Scenario, f float64) { sc.Layout.MixFraction = f }},
	"layout.fleet_scale":          {kind: number, valid: positive, set: func(sc *sim.Scenario, f float64) { sc.Layout.FleetScale = f }},
	"workload.saas_fraction":      {kind: number, valid: fraction, set: func(sc *sim.Scenario, f float64) { sc.Workload.SaaSFraction = f }},
	"workload.endpoints":          {kind: whole, valid: atLeastOne, set: func(sc *sim.Scenario, f float64) { sc.Workload.Endpoints = int(f) }},
	"workload.occupancy":          {kind: number, valid: openFraction, set: func(sc *sim.Scenario, f float64) { sc.Workload.Occupancy = f }},
	"workload.demand_scale":       {kind: number, valid: positive, set: func(sc *sim.Scenario, f float64) { sc.Workload.DemandScale = f }},
	"oversubscribe":               {kind: number, valid: nonNegative, set: func(sc *sim.Scenario, f float64) { sc.Oversubscribe = f }},
	"region.mean_c":               {kind: number, set: func(sc *sim.Scenario, f float64) { sc.Region.MeanC = f }},
	"slo.affinity_weight":         {kind: number, valid: openFraction, set: func(sc *sim.Scenario, f float64) { sc.SLOSched.AffinityWeight = f }},
	"slo.admission_slack":         {kind: number, valid: positive, set: func(sc *sim.Scenario, f float64) { sc.SLOSched.AdmissionSlack = f }},
	"powergov.budget_frac":        {kind: number, valid: openFraction, set: func(sc *sim.Scenario, f float64) { sc.PowerGov.BudgetFrac = f }},
	"powergov.gain":               {kind: number, valid: openFraction, set: func(sc *sim.Scenario, f float64) { sc.PowerGov.Gain = f }},
	"seed":                        {kind: whole, valid: nonNegative, set: func(sc *sim.Scenario, f float64) { sc.Layout.Seed, sc.Workload.Seed = uint64(f), uint64(f) }},
	"start_offset":                {kind: duration, valid: nonNegative, setDur: func(sc *sim.Scenario, d time.Duration) { sc.StartOffset = d }},
	"layout.gpu":                  {kind: text, parse: func(sc *sim.Scenario, s string) (err error) { sc.Layout.GPU, err = layout.ParseGPUModel(s); return err }},
	"region":                      {kind: text, parse: func(sc *sim.Scenario, s string) (err error) { sc.Region, err = regionByName(s); return err }},
	"transform.demand_scale":      {kind: number, valid: positive, op: "demand_scale", tune: tuneDemand},
	"transform.demand_scale.saas": {kind: number, valid: positive, op: "demand_scale", tune: tuneDemandSide(func(ds *transform.DemandScale) *float64 { return &ds.SaaS })},
	"transform.demand_scale.iaas": {kind: number, valid: positive, op: "demand_scale", tune: tuneDemandSide(func(ds *transform.DemandScale) *float64 { return &ds.IaaS })},
	"transform.time_warp":         {kind: number, op: "time_warp", tune: func(s transform.Step, f float64) { s.(*transform.TimeWarp).Factor = f }},
}

// tuneDemand writes a swept uniform factor into a demand_scale step,
// overriding the step's per-kind multipliers.
func tuneDemand(s transform.Step, f float64) {
	ds := s.(*transform.DemandScale)
	ds.Factor, ds.IaaS, ds.SaaS = f, 0, 0
}

// tuneDemandSide returns the tune of a per-kind demand axis: it sweeps one
// side of the demand and keeps the other at the step's value, splitting a
// uniform factor into both sides first. The SaaS axis is the paper's
// demand-intensity knob (hotter requests on the same fleet), the IaaS axis
// its arrival-pressure knob (a thinned or replicated VM population).
func tuneDemandSide(side func(*transform.DemandScale) *float64) func(transform.Step, float64) {
	return func(s transform.Step, f float64) {
		ds := s.(*transform.DemandScale)
		if ds.Factor != 0 {
			ds.IaaS, ds.SaaS, ds.Factor = ds.Factor, ds.Factor, 0
		}
		*side(ds) = f
	}
}

// maxWhole is the largest magnitude a whole-number parameter takes: every
// integer up to it survives the JSON number's float64 exactly.
const maxWhole = 1 << 53

// apply checks v against the parameter's kind and range and writes it to
// sc. name labels the errors.
func (p param) apply(sc *sim.Scenario, name string, v AxisValue) error {
	if p.kind == text || p.kind == duration {
		if v.IsNum {
			return fmt.Errorf("%s needs a string, got %v", name, v.Num)
		}
		if p.kind == text {
			return p.parse(sc, v.Str)
		}
		d, err := time.ParseDuration(v.Str)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if p.valid.ok != nil && !p.valid.ok(float64(d)) {
			return fmt.Errorf("%s %v %s", name, d, p.valid.why)
		}
		p.setDur(sc, d)
		return nil
	}
	if !v.IsNum {
		return fmt.Errorf("%s needs a number, got %q", name, v.Str)
	}
	f := v.Num
	if p.kind == whole && (f != math.Trunc(f) || math.Abs(f) > maxWhole) {
		return fmt.Errorf("%s %v must be a whole number within ±2^53", name, f)
	}
	if p.valid.ok != nil && !p.valid.ok(f) {
		return fmt.Errorf("%s %v %s", name, f, p.valid.why)
	}
	if p.op != "" {
		return setTransformFactor(sc, p.op, func(s transform.Step) { p.tune(s, f) })
	}
	p.set(sc, f)
	return nil
}

// setTransformFactor clones the point's chain (grid points share the base
// scenario's slice), applies tune to the single step with the given op and
// validates the result against the step's own limits.
func setTransformFactor(sc *sim.Scenario, op string, tune func(transform.Step)) error {
	chain := sc.TraceTransforms.Clone()
	n := 0
	for _, s := range chain {
		if s.Op() == op {
			n++
			tune(s)
		}
	}
	if n != 1 {
		// Validate enforces this for spec-driven campaigns; programmatic
		// sweeps get the same loud failure.
		return fmt.Errorf("chain needs exactly one %s step to sweep (found %d)", op, n)
	}
	if err := chain.Validate(); err != nil {
		return err
	}
	sc.TraceTransforms = chain
	return nil
}

// fieldValue is a spec field that sets a table parameter, with its value.
type fieldValue struct {
	name string
	v    AxisValue
}

// paramFields lists the spec fields set in s that write a table parameter,
// each as the axis value of the same name would carry it.
func (s *Spec) paramFields() []fieldValue {
	var out []fieldValue
	num := func(name string, f *float64) {
		if f != nil {
			out = append(out, fieldValue{name, AxisValue{Num: *f, IsNum: true}})
		}
	}
	count := func(name string, n *int) {
		if n != nil {
			out = append(out, fieldValue{name, AxisValue{Num: float64(*n), IsNum: true}})
		}
	}
	lo, wo := s.Layout, s.Workload
	count("layout.aisles", lo.Aisles)
	count("layout.racks_per_row", lo.RacksPerRow)
	count("layout.servers_per_rack", lo.ServersPerRack)
	if lo.GPU != "" {
		out = append(out, fieldValue{"layout.gpu", AxisValue{Str: lo.GPU}})
	}
	num("layout.mix_fraction", lo.MixFraction)
	num("layout.fleet_scale", lo.FleetScale)
	num("workload.saas_fraction", wo.SaaSFraction)
	count("workload.endpoints", wo.Endpoints)
	num("workload.occupancy", wo.Occupancy)
	num("workload.demand_scale", wo.DemandScale)
	if s.StartOffset != nil {
		out = append(out, fieldValue{"start_offset", AxisValue{Str: time.Duration(*s.StartOffset).String()}})
	}
	num("oversubscribe", s.Oversubscribe)
	return out
}

// applyFields writes the spec's parameter fields to sc.
func (s *Spec) applyFields(sc *sim.Scenario) error {
	for _, f := range s.paramFields() {
		if err := params[f.name].apply(sc, f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// AxisParams lists the sweepable parameter names in sorted order.
func AxisParams() []string {
	var out []string
	for name, p := range params {
		if !p.fieldOnly {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
