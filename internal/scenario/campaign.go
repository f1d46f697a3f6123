package scenario

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/sim"
)

// Policy pairs a display name with a constructor; every run gets a fresh
// policy instance (policies carry per-run mutable state).
type Policy struct {
	Name string
	New  func() sim.Policy
}

// ParsePolicy maps a spec policy string to a constructor: "baseline",
// "tapas", "slo" (deadline-aware admission on top of full TAPAS), "slo-edf"
// (admission plus earliest-deadline-first queues), "powergov" (closed-loop
// per-endpoint power governing on top of full TAPAS), "powergov-energy"
// (governing plus generation-efficiency-weighted request routing), or a
// comma list of TAPAS levers ("place", "route", "config").
func ParsePolicy(s string) (Policy, error) {
	var opts core.Options
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "baseline":
		return Policy{Name: core.NewBaseline().Name(), New: func() sim.Policy { return core.NewBaseline() }}, nil
	case "tapas":
		opts = core.Options{Place: true, Route: true, Config: true}
	case "slo":
		return Policy{Name: core.NewSLO(false).Name(), New: func() sim.Policy { return core.NewSLO(false) }}, nil
	case "slo-edf":
		return Policy{Name: core.NewSLO(true).Name(), New: func() sim.Policy { return core.NewSLO(true) }}, nil
	case "powergov":
		return Policy{Name: core.NewPowerGov(false).Name(), New: func() sim.Policy { return core.NewPowerGov(false) }}, nil
	case "powergov-energy":
		return Policy{Name: core.NewPowerGov(true).Name(), New: func() sim.Policy { return core.NewPowerGov(true) }}, nil
	default:
		for _, part := range strings.Split(s, ",") {
			switch strings.ToLower(strings.TrimSpace(part)) {
			case "place":
				opts.Place = true
			case "route":
				opts.Route = true
			case "config":
				opts.Config = true
			default:
				return Policy{}, fmt.Errorf("unknown policy %q (want baseline, tapas, slo, slo-edf, powergov, powergov-energy, or a comma list of place/route/config)", s)
			}
		}
	}
	o := opts
	return Policy{Name: core.New(o).Name(), New: func() sim.Policy { return core.New(o) }}, nil
}

// Campaign is an expanded spec: the grid of scenarios times the policy set.
type Campaign struct {
	Spec     *Spec
	Points   []Point
	Policies []Policy
}

// Runs returns the total number of simulations the campaign executes.
func (c *Campaign) Runs() int { return len(c.Points) * len(c.Policies) }

// RunOptions bounds a campaign execution.
type RunOptions struct {
	// Parallel bounds the worker pool (≤ 0 selects GOMAXPROCS). Reports are
	// byte-identical across worker counts.
	Parallel int
	// Cache, when non-nil, serves compilations from (and fills) a
	// content-addressed compile cache, so identical scenarios across
	// back-to-back or concurrent campaigns compile once. Nil compiles
	// through a cache private to the run. Reports from cache hits are
	// byte-identical to cold compiles.
	Cache *sim.CompileCache
	// Context cancels the campaign cooperatively at run granularity: once
	// done, queued compiles and runs are skipped and Run returns the
	// context's error (in-flight simulations finish first). Nil means
	// context.Background().
	Context context.Context
	// OnProgress, when non-nil, is invoked after every completed simulation
	// with the number of finished runs and the campaign total. It is called
	// from worker goroutines and must be safe for concurrent use.
	OnProgress func(done, total int)
}

// Campaign expands the spec into its grid. scale overrides the spec's Scale
// when positive (0 keeps the spec's, which itself defaults to paper scale);
// a scale outside [0, 1], NaN included, is an error.
func (s *Spec) Campaign(scale float64) (*Campaign, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !(scale >= 0 && scale <= 1) {
		return nil, fmt.Errorf("scenario: spec %q: scale %v is outside [0, 1]", s.Name, scale)
	}
	if scale == 0 {
		scale = s.Scale
	}
	base, err := s.baseScenario(scale)
	if err != nil {
		return nil, fmt.Errorf("scenario: spec %q: %w", s.Name, err)
	}
	// Scaling can shorten the run below an explicit tick; no axis changes
	// either, so checking the base scenario covers every grid point.
	if base.Duration < base.Tick {
		return nil, fmt.Errorf("scenario: spec %q: duration %v is shorter than one tick (%v)", s.Name, base.Duration, base.Tick)
	}
	points, err := s.expand(base)
	if err != nil {
		return nil, err
	}
	var pols []Policy
	for _, name := range s.policyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			return nil, fmt.Errorf("scenario: spec %q: %w", s.Name, err)
		}
		pols = append(pols, p)
	}
	return &Campaign{Spec: s, Points: points, Policies: pols}, nil
}

// Prov is one grid point's provisioned envelope: the largest provisioned
// row power of its layout and the GPU throttle threshold — the normalization
// constants behind norm_peak_power / norm_max_temp.
type Prov struct {
	PowerW float64
	TempC  float64
}

// Result is a completed campaign: one sim.Result per (policy, point), plus
// the provisioned envelopes reports normalize against.
type Result struct {
	Campaign *Campaign
	// Runs is indexed [policy][point], both in campaign order.
	Runs [][]*sim.Result
	// Prov holds each grid point's own envelopes; axes that change the
	// layout (GPU generation, mix fraction, oversubscription) change them
	// point to point, so norm_* metrics always divide by the envelopes of
	// the layout they ran against.
	Prov []Prov
	// Compiles is the number of distinct scenario keys (sim.ScenarioKey,
	// read from each point's sim.CompiledScenario.Key) in the grid — axes
	// that collapse to identical compile-relevant scenarios, or that vary
	// only runtime fields such as the climate, share one key, so this can
	// be smaller than len(Campaign.Points). It is not a count of cold
	// compiles: with a shared RunOptions.Cache any of these keys may be
	// served without compile work (see sim.CompileCache.Stats).
	Compiles int
}

// Run executes the campaign: every grid point compiles through
// RunOptions.Cache (or a cache private to the run), which deduplicates points
// with equal content keys (sim.ScenarioKey) and hands each its compilation
// with the point's own runtime-only fields, and all policies share the
// compiled artifacts read-only across the worker pool (sim.RunParallelCtx).
// The result is deterministic and independent of the worker count and the
// cache state.
func (c *Campaign) Run(opt RunOptions) (*Result, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cache := opt.Cache
	if cache == nil {
		cache = sim.NewCompileCache(0)
	}
	nPts := len(c.Points)
	compiled, err := sim.RunParallelCtx(ctx, nPts, opt.Parallel, func(_, pi int) (*sim.CompiledScenario, error) {
		cs, err := cache.Compile(c.Points[pi].Scenario)
		if err != nil {
			return nil, fmt.Errorf("scenario: spec %q: compiling point %d: %w", c.Spec.Name, pi, err)
		}
		return cs, nil
	})
	if err != nil {
		return nil, err
	}
	total := len(c.Policies) * nPts
	var done atomic.Int64
	runs, err := sim.RunParallelCtx(ctx, total, opt.Parallel, func(_, job int) (*sim.Result, error) {
		pol := c.Policies[job/nPts]
		res, err := compiled[job%nPts].Run(pol.New())
		if err != nil {
			return nil, fmt.Errorf("scenario: spec %q: running %s on point %d: %w", c.Spec.Name, pol.Name, job%nPts, err)
		}
		if opt.OnProgress != nil {
			opt.OnProgress(int(done.Add(1)), total)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Campaign: c,
		Runs:     make([][]*sim.Result, len(c.Policies)),
		Prov:     make([]Prov, nPts),
	}
	keys := make(map[sim.CacheKey]bool, nPts)
	for pi, cs := range compiled {
		keys[cs.Key()] = true
		p := Prov{}
		for _, row := range cs.DC.Rows {
			if row.ProvPowerW > p.PowerW {
				p.PowerW = row.ProvPowerW
			}
		}
		for _, srv := range cs.DC.Servers {
			if srv.GPU.ThrottleTempC > p.TempC {
				p.TempC = srv.GPU.ThrottleTempC
			}
		}
		out.Prov[pi] = p
	}
	out.Compiles = len(keys)
	for pi := range c.Policies {
		out.Runs[pi] = runs[pi*nPts : (pi+1)*nPts]
	}
	return out, nil
}
