package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// Duration is a time.Duration that unmarshals from Go duration strings
// ("20h9m36s", "1m").
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"24h\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("invalid duration %q: %w", s, err)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// LayoutSpec selects and overrides a datacenter layout. Absent fields keep
// the preset's values.
type LayoutSpec struct {
	// Preset is "large" (the paper's ~1000-server cluster) or "small" (the
	// 80-server real-cluster testbed). Default "large".
	Preset         string   `json:"preset,omitempty"`
	Aisles         *int     `json:"aisles,omitempty"`
	RacksPerRow    *int     `json:"racks_per_row,omitempty"`
	ServersPerRack *int     `json:"servers_per_rack,omitempty"`
	GPU            string   `json:"gpu,omitempty"`          // "A100" | "H100"
	MixGPU         string   `json:"mix_gpu,omitempty"`      // heterogeneous fleets
	MixFraction    *float64 `json:"mix_fraction,omitempty"` // fraction of aisles on MixGPU
	Seed           *uint64  `json:"seed,omitempty"`
	// FleetScale multiplies the aisle count at layout generation (the
	// hyperscale axis): 10 provisions ten times the preset's fleet with the
	// same per-row/per-aisle shape. Composes with Scale (which shrinks
	// toward quick runs) — FleetScale applies to the already-scaled aisle
	// count. Also sweepable via the layout.fleet_scale axis.
	FleetScale *float64 `json:"fleet_scale,omitempty"`
}

// WorkloadSpec overrides workload generation. Absent fields keep the
// preset's values (50/50 mix, generator defaults for occupancy and demand).
//
// Trace switches the spec from synthetic generation to replay: the named
// workload CSV (recorded by tapas-trace -export / trace.WriteWorkloadCSV) is
// loaded once and pinned across the whole campaign grid, so axes sweep
// policies, climates, and failure schedules over the exact same workload.
// Relative paths resolve against the spec file's directory. Trace is
// mutually exclusive with every synthetic field of this struct and with
// workload.* / seed sweep axes — a synthetic override on a replayed trace
// would be silently ignored, so it is rejected instead.
// Transforms is an optional replay-time transform chain (canonical JSON of
// internal/trace/transform: time_warp, demand_scale, endpoint_filter,
// jitter, splice) applied to the pinned trace inside sim.Compile. It
// requires Trace — transforms reshape recorded workloads, synthetic ones
// are reshaped by their generation fields — and unlocks the transform.*
// sweep axes, so one pinned trace can drive a demand-scalability campaign.
// Relative splice paths resolve against the spec file's directory.
//
// Requests names a request-level replay log (CSV recorded by tapas-trace
// -export-requests / -import-azure -requests-out): with it set, SaaS
// endpoints stop consuming the trace's binned token rates and instead run
// continuous-batching queues fed by the log's individual arrivals, which
// unlocks the per-request SLO metrics (ttft_*, tbt_*, queue_*,
// slo_attainment_pct) as report columns. Requests requires Trace — the
// recorded workload still provides the endpoint set and VM population the
// requests are served on — and relative paths resolve against the spec file's
// directory. The Transforms chain applies to both views of the workload
// (time_warp and demand_scale reshape the request log consistently).
type WorkloadSpec struct {
	SaaSFraction *float64        `json:"saas_fraction,omitempty"`
	Endpoints    *int            `json:"endpoints,omitempty"`
	Occupancy    *float64        `json:"occupancy,omitempty"`
	DemandScale  *float64        `json:"demand_scale,omitempty"`
	Seed         *uint64         `json:"seed,omitempty"`
	Trace        string          `json:"trace,omitempty"`
	Requests     string          `json:"requests,omitempty"`
	Transforms   json.RawMessage `json:"transforms,omitempty"`
}

// RegionSpec selects the deployment climate: either a preset name ("hot",
// "temperate", "cool") or a full custom region object.
type RegionSpec struct {
	set    bool
	region trace.Region
}

// UnmarshalJSON accepts "hot" | "temperate" | "cool" or a custom object
// {"name", "mean_c", "seasonal_amp_c", "diurnal_amp_c", "noise_c"}.
func (r *RegionSpec) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err == nil {
		reg, err := regionByName(name)
		if err != nil {
			return err
		}
		r.set, r.region = true, reg
		return nil
	}
	var custom struct {
		Name         string  `json:"name"`
		MeanC        float64 `json:"mean_c"`
		SeasonalAmpC float64 `json:"seasonal_amp_c"`
		DiurnalAmpC  float64 `json:"diurnal_amp_c"`
		NoiseC       float64 `json:"noise_c"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&custom); err != nil {
		return fmt.Errorf("region must be a preset name or a custom object: %w", err)
	}
	if custom.Name == "" {
		custom.Name = "custom"
	}
	r.set = true
	r.region = trace.Region{
		Name:         custom.Name,
		MeanC:        custom.MeanC,
		SeasonalAmpC: custom.SeasonalAmpC,
		DiurnalAmpC:  custom.DiurnalAmpC,
		NoiseC:       custom.NoiseC,
	}
	return nil
}

func regionByName(name string) (trace.Region, error) {
	switch strings.ToLower(name) {
	case "hot":
		return trace.RegionHot, nil
	case "temperate":
		return trace.RegionTemperate, nil
	case "cool":
		return trace.RegionCool, nil
	}
	return trace.Region{}, fmt.Errorf("unknown region %q (known: hot, temperate, cool)", name)
}

// FailureSpec schedules one cooling or power emergency window.
type FailureSpec struct {
	Kind     string   `json:"kind"` // "power" | "cooling"
	At       Duration `json:"at"`
	Duration Duration `json:"duration"`
}

func (f FailureSpec) event() (sim.FailureEvent, error) {
	var kind sim.FailureKind
	switch f.Kind {
	case "power":
		kind = sim.PowerFailure
	case "cooling":
		kind = sim.CoolingFailure
	default:
		return sim.FailureEvent{}, fmt.Errorf("unknown failure kind %q (known: power, cooling)", f.Kind)
	}
	if f.Duration <= 0 {
		return sim.FailureEvent{}, fmt.Errorf("failure duration %v must be positive", time.Duration(f.Duration))
	}
	return sim.FailureEvent{Kind: kind, At: time.Duration(f.At), Duration: time.Duration(f.Duration)}, nil
}

// AxisSpec sweeps one parameter over a list of values; multiple axes expand
// into their cartesian grid. Labels (optional) name the grid columns in
// reports; they default to the formatted values.
type AxisSpec struct {
	Param  string      `json:"param"`
	Values []AxisValue `json:"values"`
	Labels []string    `json:"labels,omitempty"`
}

// AxisValue is one swept value: a JSON number or string.
type AxisValue struct {
	Num   float64
	Str   string
	IsNum bool
}

// UnmarshalJSON implements json.Unmarshaler. JSON null is rejected: both
// unmarshal targets would accept it as a silent no-op and sweep an
// unintended zero value.
func (v *AxisValue) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return fmt.Errorf("axis value must be a number or a string, not null")
	}
	if err := json.Unmarshal(b, &v.Num); err == nil {
		v.IsNum = true
		return nil
	}
	if err := json.Unmarshal(b, &v.Str); err == nil {
		return nil
	}
	return fmt.Errorf("axis value %s must be a number or a string", b)
}

// Label formats the value for display when the axis declares no labels.
func (v AxisValue) Label() string {
	if v.IsNum {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Str
}

// ReportSpec selects the output format and metric columns.
type ReportSpec struct {
	// Format is "text" (grid over a single axis, flat table otherwise),
	// "csv", or "json". Default "text".
	Format string `json:"format,omitempty"`
	// Metrics are report columns; see Metrics() for the registry. Default
	// ["norm_max_temp", "norm_peak_power"].
	Metrics []string `json:"metrics,omitempty"`
}

// Spec is a declarative scenario specification, optionally swept into a
// campaign grid by Axes. The zero spec (plus a name) is the paper's
// large-scale week under Baseline and TAPAS.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Scale shrinks the preset toward quick runs, as tapas-bench's -scale
	// does for the paper's figures: it scales aisle count and duration
	// (large preset; floors of 2 aisles / 6 h) or shortens the run to 20
	// minutes (small preset, scale < 0.5). It lies in [0, 1]; 0 means 1.0
	// (paper scale). Fleets grow through layout.fleet_scale instead.
	Scale float64 `json:"scale,omitempty"`
	// Seed drives every deterministic generator; layout/workload seeds
	// override it individually. Default 42.
	Seed *uint64 `json:"seed,omitempty"`

	Layout        LayoutSpec    `json:"layout,omitempty"`
	Workload      WorkloadSpec  `json:"workload,omitempty"`
	Region        RegionSpec    `json:"region,omitempty"`
	Duration      *Duration     `json:"duration,omitempty"`
	Tick          *Duration     `json:"tick,omitempty"`
	StartOffset   *Duration     `json:"start_offset,omitempty"`
	Oversubscribe *float64      `json:"oversubscribe,omitempty"`
	Failures      []FailureSpec `json:"failures,omitempty"`

	// Shards is accepted and ignored: the tick kernel is serial, and
	// campaigns use cores through tapas-campaign's -parallel. The field
	// still parses because the parser rejects unknown fields and existing
	// specs set it.
	Shards *int `json:"shards,omitempty"`

	// Policies are evaluated on every grid point: "baseline", "tapas", or a
	// comma list of levers ("place,route"). Default ["baseline", "tapas"].
	Policies []string   `json:"policies,omitempty"`
	Axes     []AxisSpec `json:"axes,omitempty"`
	Report   ReportSpec `json:"report,omitempty"`

	// dir is the directory of the spec file (set by Load); relative
	// workload.trace paths resolve against it, so committed specs can sit
	// next to their recorded traces.
	dir string
}

// Parse decodes and validates a spec. Unknown fields are rejected, so typos
// in committed spec files fail loudly instead of silently reverting to
// defaults.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	// Reject trailing content (e.g. a botched merge duplicating the
	// object) — only whitespace may follow the spec.
	if dec.More() {
		return nil, fmt.Errorf("scenario: parsing spec: trailing content after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.dir = filepath.Dir(path)
	return s, nil
}

// SetBaseDir sets the directory relative workload.trace (and splice) paths
// resolve against. Load sets it to the spec file's directory automatically;
// callers that Parse specs from other sources (the campaign daemon's HTTP
// body, tests) use this to anchor relative paths explicitly.
func (s *Spec) SetBaseDir(dir string) { s.dir = dir }

// Validate checks the spec without building anything expensive.
func (s *Spec) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("scenario: spec %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if !(s.Scale >= 0 && s.Scale <= 1) {
		return fail("scale %v is outside [0, 1]", s.Scale)
	}
	switch s.Layout.Preset {
	case "", "large", "small":
	default:
		return fail("unknown layout preset %q (known: large, small)", s.Layout.Preset)
	}
	var scratch sim.Scenario
	if err := s.applyFields(&scratch); err != nil {
		return fail("%v", err)
	}
	if s.Layout.MixGPU != "" {
		if _, err := layout.ParseGPUModel(s.Layout.MixGPU); err != nil {
			return fail("%v", err)
		}
	}
	// A mix fraction without a distinct second generation would silently
	// produce a uniform fleet; require an explicit, different mix_gpu.
	// Compare parsed models (with the preset's A100 default applied), not
	// raw strings, so case variants and the implicit base cannot slip by.
	mixSwept := false
	for _, ax := range s.Axes {
		if ax.Param == "layout.mix_fraction" {
			mixSwept = true
		}
	}
	if (mixSwept || (s.Layout.MixFraction != nil && *s.Layout.MixFraction > 0)) && s.Layout.MixGPU == "" {
		return fail("layout.mix_fraction given without layout.mix_gpu")
	}
	if s.Layout.MixGPU != "" {
		base := layout.A100 // both presets default to A100
		if s.Layout.GPU != "" {
			base, _ = layout.ParseGPUModel(s.Layout.GPU)
		}
		if mix, _ := layout.ParseGPUModel(s.Layout.MixGPU); mix == base {
			return fail("layout.mix_gpu %q equals the base generation; a mixed fleet needs two generations", s.Layout.MixGPU)
		}
	}
	// Replay-time transforms reshape a recorded trace; without one there is
	// nothing to transform (synthetic workloads are shaped by their
	// generation fields), so the combination is rejected.
	if len(s.Workload.Transforms) > 0 && s.Workload.Trace == "" {
		return fail("workload.transforms requires workload.trace; transforms apply to recorded traces (synthetic workloads are shaped by the workload.* fields)")
	}
	// A request log replays individual arrivals against the recorded
	// workload's endpoint set and VM population; without the trace there is
	// nothing to serve them on.
	if s.Workload.Requests != "" && s.Workload.Trace == "" {
		return fail("workload.requests requires workload.trace; the recorded workload provides the endpoint set the request log is served on")
	}
	chain, err := s.transformChain()
	if err != nil {
		return fail("workload.transforms: %v", err)
	}
	sweptOps := map[string]string{}
	for _, ax := range s.Axes {
		op := params[ax.Param].op
		if op == "" {
			continue
		}
		if prev, dup := sweptOps[op]; dup {
			return fail("axes %q and %q both sweep the %s step; they would overwrite each other", prev, ax.Param, op)
		}
		sweptOps[op] = ax.Param
		n := 0
		for _, step := range chain {
			if step.Op() == op {
				n++
			}
		}
		if n != 1 {
			return fail("axis %q needs exactly one %s step in workload.transforms to sweep (found %d)", ax.Param, op, n)
		}
	}
	// A replayed trace pins the workload; any synthetic workload knob (or a
	// sweep axis that would regenerate it) alongside would be silently
	// ignored, so the combinations are rejected outright.
	if s.Workload.Trace != "" {
		synthetic := ""
		for _, f := range s.paramFields() {
			if synthetic == "" && strings.HasPrefix(f.name, "workload.") {
				synthetic = f.name
			}
		}
		if synthetic == "" && s.Workload.Seed != nil {
			synthetic = "workload.seed"
		}
		if synthetic != "" {
			return fail("workload.trace replays a recorded workload; synthetic field %s cannot be set alongside it", synthetic)
		}
		for _, ax := range s.Axes {
			if strings.HasPrefix(ax.Param, "workload.") || ax.Param == "seed" {
				return fail("axis %q cannot be swept when workload.trace pins a recorded workload", ax.Param)
			}
		}
	}
	if s.Duration != nil && *s.Duration <= 0 {
		return fail("non-positive duration %v", time.Duration(*s.Duration))
	}
	if s.Tick != nil && *s.Tick <= 0 {
		return fail("non-positive tick %v", time.Duration(*s.Tick))
	}
	for _, f := range s.Failures {
		if _, err := f.event(); err != nil {
			return fail("%v", err)
		}
	}
	for _, p := range s.policyNames() {
		if _, err := ParsePolicy(p); err != nil {
			return fail("%v", err)
		}
	}
	seen := map[string]bool{}
	for _, ax := range s.Axes {
		if p, ok := params[ax.Param]; !ok || p.fieldOnly {
			return fail("unknown axis param %q (known: %s)", ax.Param, strings.Join(AxisParams(), ", "))
		}
		if seen[ax.Param] {
			return fail("axis param %q swept twice", ax.Param)
		}
		seen[ax.Param] = true
		if len(ax.Values) == 0 {
			return fail("axis %q has no values", ax.Param)
		}
		if len(ax.Labels) > 0 && len(ax.Labels) != len(ax.Values) {
			return fail("axis %q has %d labels for %d values", ax.Param, len(ax.Labels), len(ax.Values))
		}
	}
	switch s.Report.Format {
	case "", "text", "csv", "json":
	default:
		return fail("unknown report format %q (known: text, csv, json)", s.Report.Format)
	}
	for _, id := range s.metricIDs() {
		if _, ok := metricByID(id); !ok {
			return fail("unknown metric %q (known: %s)", id, strings.Join(MetricIDs(), ", "))
		}
	}
	return nil
}

// transformChain parses the workload.transforms field (nil when absent).
// Splice traces are not loaded here — Validate must not touch the
// filesystem; baseScenario loads them against the spec directory.
func (s *Spec) transformChain() (transform.Chain, error) {
	if len(s.Workload.Transforms) == 0 {
		return nil, nil
	}
	return transform.Parse(s.Workload.Transforms)
}

func (s *Spec) policyNames() []string {
	if len(s.Policies) == 0 {
		return []string{"baseline", "tapas"}
	}
	return s.Policies
}

func (s *Spec) metricIDs() []string {
	if len(s.Report.Metrics) == 0 {
		return []string{"norm_max_temp", "norm_peak_power"}
	}
	return s.Report.Metrics
}

// baseScenario materializes the un-swept sim.Scenario: preset, overrides,
// then scaling. The paper's figures run through this pipeline too.
func (s *Spec) baseScenario(scale float64) (sim.Scenario, error) {
	small := s.Layout.Preset == "small"
	var sc sim.Scenario
	if small {
		sc = sim.SmallScenario()
	} else {
		sc = sim.DefaultScenario()
	}
	if scale <= 0 {
		scale = 1
	}

	seed := uint64(42)
	if s.Seed != nil {
		seed = *s.Seed
	}
	sc.Layout.Seed = seed
	sc.Workload.Seed = seed

	if s.Layout.Seed != nil {
		sc.Layout.Seed = *s.Layout.Seed
	}
	if s.Workload.Seed != nil {
		sc.Workload.Seed = *s.Workload.Seed
	}
	if err := s.applyFields(&sc); err != nil {
		return sim.Scenario{}, err
	}
	if s.Layout.MixGPU != "" {
		m, err := layout.ParseGPUModel(s.Layout.MixGPU)
		if err != nil {
			return sim.Scenario{}, err
		}
		sc.Layout.MixGPU = m
	}
	if s.Region.set {
		sc.Region = s.Region.region
	}
	if s.Duration != nil {
		sc.Duration = time.Duration(*s.Duration)
	}
	if s.Tick != nil {
		sc.Tick = time.Duration(*s.Tick)
	}
	for _, f := range s.Failures {
		ev, err := f.event()
		if err != nil {
			return sim.Scenario{}, err
		}
		sc.Failures = append(sc.Failures, ev)
	}

	if small {
		scaleSmall(&sc, scale, s.Duration != nil)
	} else {
		scaleLarge(&sc, scale, s.StartOffset != nil, s.Duration != nil)
	}

	// Replay: load the recorded workload once; every grid point shares the
	// parsed trace read-only, exactly like compiled synthetic workloads.
	if s.Workload.Trace != "" {
		path := s.Workload.Trace
		if !filepath.IsAbs(path) && s.dir != "" {
			path = filepath.Join(s.dir, path)
		}
		wl, err := trace.LoadWorkloadCSV(path)
		if err != nil {
			return sim.Scenario{}, fmt.Errorf("loading workload.trace: %w", err)
		}
		sc.Trace = wl

		chain, err := s.transformChain()
		if err != nil {
			return sim.Scenario{}, fmt.Errorf("workload.transforms: %w", err)
		}
		if err := chain.Load(s.dir); err != nil {
			return sim.Scenario{}, fmt.Errorf("loading workload.transforms: %w", err)
		}
		sc.TraceTransforms = chain

		// Request-level replay: the log is loaded once and shared read-only
		// across the grid like the trace; sim.Compile transforms and
		// validates it against the workload.
		if s.Workload.Requests != "" {
			rpath := s.Workload.Requests
			if !filepath.IsAbs(rpath) && s.dir != "" {
				rpath = filepath.Join(s.dir, rpath)
			}
			reqs, err := trace.LoadRequestsCSV(rpath)
			if err != nil {
				return sim.Scenario{}, fmt.Errorf("loading workload.requests: %w", err)
			}
			sc.Requests = reqs
		}
	}
	return sc, nil
}

// scaleLarge applies the quick-run scaling rules of the large preset in
// place: aisle count (rounded, at least 2) and duration shrink
// proportionally, and sub-half-scale runs shift to the 9 h diurnal-peak
// start offset unless the spec pins an offset (explicitOffset). The 6 h
// duration floor guards the preset's paper week; a spec-chosen duration
// (explicitDuration) scales with only a 5-minute floor so short campaigns
// stay short.
func scaleLarge(sc *sim.Scenario, scale float64, explicitOffset, explicitDuration bool) {
	sc.Layout.Aisles = int(float64(sc.Layout.Aisles)*scale + 0.5)
	if sc.Layout.Aisles < 2 {
		sc.Layout.Aisles = 2
	}
	floor := 6 * time.Hour
	if explicitDuration {
		floor = 5 * time.Minute
	}
	dur := time.Duration(float64(sc.Duration) * scale)
	if dur < floor {
		dur = floor
	}
	sc.Duration = dur
	if scale < 0.5 && !explicitOffset {
		sc.StartOffset = 9 * time.Hour // short runs still cover the daily peak
	}
}

// scaleSmall applies the quick-run scaling rules of the small (real-cluster)
// preset in place: sub-half-scale runs shorten to the 20-minute smoke
// window, or, when the spec sets a duration (explicitDuration), scale it
// proportionally with a 5-minute floor.
func scaleSmall(sc *sim.Scenario, scale float64, explicitDuration bool) {
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
}
