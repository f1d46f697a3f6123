package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
	"github.com/tapas-sim/tapas/internal/trace"
)

// Policy hooks the timing wrapper counts. Counts are kept per run, not as
// per-call spans: one ablation op makes hundreds of thousands of Route calls.
const (
	hInit = iota
	hPlace
	hRoute
	hRouteRequest
	hAdmit
	hConfigure
	hCap
	nHooks
)

var hookNames = [nHooks]string{"init", "place", "route", "route_request", "admit", "configure", "cap"}

// hookStat counts one hook's calls, the time spent in them, and how many
// declined: a rejected placement or a shed request.
type hookStat struct {
	Calls    int64 `json:"calls"`
	BusyNs   int64 `json:"busy_ns"`
	Declined int64 `json:"declined,omitempty"`
}

// span is one timed interval at a layer boundary. sim.run spans also carry
// the run's hook counts and its ticks.
type span struct {
	ID      int                  `json:"id"`
	Parent  int                  `json:"parent"`
	Op      int                  `json:"op"`
	Name    string               `json:"name"`
	StartNs int64                `json:"start_ns"`
	EndNs   int64                `json:"end_ns"`
	Hooks   map[string]*hookStat `json:"hooks,omitempty"`
	Ticks   int64                `json:"ticks,omitempty"`
	TickNs  int64                `json:"tick_ns,omitempty"`
	Servers int64                `json:"servers,omitempty"`
	Bytes   int64                `json:"bytes,omitempty"`
}

func (s *span) dur() int64 { return s.EndNs - s.StartNs }

// tracer records spans in memory. A traced op runs its campaign with one
// worker, so there is at most one simulation in flight: the policy
// constructor opens its sim.run span, the scenario observer attributes each
// tick to it, and campaign progress closes it.
type tracer struct {
	t0    time.Time
	spans []*span
	op    int
	cur   *runStats
	cache sim.LevelStats // compile-cache traffic of the traced ops
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// open starts a span under parent (0 for none) in the current op.
func (tr *tracer) open(name string, parent int) *span {
	s := &span{ID: len(tr.spans) + 1, Parent: parent, Op: tr.op, Name: name, StartNs: tr.now()}
	tr.spans = append(tr.spans, s)
	return s
}

func (tr *tracer) close(s *span) { s.EndNs = tr.now() }

// runStats accumulates one simulation run's hook counts and tick times.
type runStats struct {
	span    *span
	hooks   [nHooks]hookStat
	ticks   int64
	tickNs  int64
	servers int64
	mark    time.Time // end of the previous tick, or of Init before the first
}

func (rs *runStats) count(h int, t0 time.Time) {
	rs.hooks[h].Calls++
	rs.hooks[h].BusyNs += int64(time.Since(t0))
}

// instrument makes a campaign traced: every policy instance is wrapped, every
// grid point's observer marks tick boundaries, and progress closes the
// sim.run span of the run that just finished. The campaign must run with one
// worker.
func (tr *tracer) instrument(c *scenario.Campaign, campaign *span, opt *scenario.RunOptions) {
	for i := range c.Policies {
		inner := c.Policies[i].New
		c.Policies[i].New = func() sim.Policy {
			rs := &runStats{span: tr.open("sim.run", campaign.ID)}
			tr.cur = rs
			return wrap(inner(), rs)
		}
	}
	for i := range c.Points {
		c.Points[i].Scenario.Observer = tr.observe
	}
	opt.Parallel = 1
	opt.OnProgress = func(int, int) { tr.finishRun() }
}

func (tr *tracer) observe(st *cluster.State) {
	rs := tr.cur
	now := time.Now()
	rs.ticks++
	rs.tickNs += int64(now.Sub(rs.mark))
	rs.mark = now
	rs.servers = int64(len(st.DC.Servers))
}

func (tr *tracer) finishRun() {
	rs := tr.cur
	tr.close(rs.span)
	rs.span.Hooks = make(map[string]*hookStat, nHooks)
	for h := range rs.hooks {
		hs := rs.hooks[h]
		rs.span.Hooks[hookNames[h]] = &hs
	}
	rs.span.Ticks, rs.span.TickNs, rs.span.Servers = rs.ticks, rs.tickNs, rs.servers
	tr.cur = nil
}

// write stores every span as one JSON line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap returns a timing wrapper around p. The engine consults an admitter
// instead of the router, so the wrapper implements sim.RequestAdmitter only
// when p does.
func wrap(p sim.Policy, rs *runStats) sim.Policy {
	t := &timedPolicy{inner: p, rs: rs}
	if a, ok := p.(sim.RequestAdmitter); ok {
		return &timedAdmitter{timedPolicy: t, admitter: a}
	}
	return t
}

// timedPolicy forwards every policy hook the engine knows to the inner
// policy and times it. Where the inner policy lacks an optional hook, the
// wrapper does what the engine does for a policy without it.
type timedPolicy struct {
	inner sim.Policy
	rs    *runStats
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Place(st *cluster.State, vm *cluster.VM) (int, bool) {
	t0 := time.Now()
	id, ok := p.inner.Place(st, vm)
	p.rs.count(hPlace, t0)
	if !ok {
		p.rs.hooks[hPlace].Declined++
	}
	return id, ok
}

func (p *timedPolicy) Route(st *cluster.State, ep trace.EndpointSpec, promptTokens, outputTokens float64) {
	t0 := time.Now()
	p.inner.Route(st, ep, promptTokens, outputTokens)
	p.rs.count(hRoute, t0)
}

func (p *timedPolicy) Configure(st *cluster.State) {
	t0 := time.Now()
	p.inner.Configure(st)
	p.rs.count(hConfigure, t0)
}

func (p *timedPolicy) CapRow(st *cluster.State, row int, drawW, limitW float64) {
	t0 := time.Now()
	p.inner.CapRow(st, row, drawW, limitW)
	p.rs.count(hCap, t0)
}

func (p *timedPolicy) CapAisle(st *cluster.State, aisle int, demandCFM, limitCFM float64) {
	t0 := time.Now()
	p.inner.CapAisle(st, aisle, demandCFM, limitCFM)
	p.rs.count(hCap, t0)
}

// Init runs right before the first tick, so its end also opens tick 1.
func (p *timedPolicy) Init(st *cluster.State) error {
	t0 := time.Now()
	var err error
	if in, ok := p.inner.(sim.Initializer); ok {
		err = in.Init(st)
	}
	p.rs.count(hInit, t0)
	p.rs.mark = time.Now()
	return err
}

func (p *timedPolicy) RouteRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	rr, ok := p.inner.(sim.RequestRouter)
	if !ok {
		return 0, false
	}
	t0 := time.Now()
	idx, ok := rr.RouteRequest(st, insts, req)
	p.rs.count(hRouteRequest, t0)
	return idx, ok
}

func (p *timedPolicy) QueueDiscipline() llm.Discipline {
	if rs, ok := p.inner.(sim.RequestScheduler); ok {
		return rs.QueueDiscipline()
	}
	return llm.FIFO
}

func (p *timedPolicy) TuneSLO(affinityWeight, admissionSlack float64) {
	if t, ok := p.inner.(sim.SLOTunable); ok {
		t.TuneSLO(affinityWeight, admissionSlack)
	}
}

func (p *timedPolicy) TunePowerGov(budgetFrac, gain float64) {
	if t, ok := p.inner.(sim.PowerGovTunable); ok {
		t.TunePowerGov(budgetFrac, gain)
	}
}

// timedAdmitter is timedPolicy for policies that control admission.
type timedAdmitter struct {
	*timedPolicy
	admitter sim.RequestAdmitter
}

func (p *timedAdmitter) AdmitRequest(st *cluster.State, insts []*cluster.VM, req llm.Request) (int, bool) {
	t0 := time.Now()
	idx, admit := p.admitter.AdmitRequest(st, insts, req)
	p.rs.count(hAdmit, t0)
	if !admit {
		p.rs.hooks[hAdmit].Declined++
	}
	return idx, admit
}
