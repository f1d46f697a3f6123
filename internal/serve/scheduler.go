package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
)

// Errors Submit returns; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull is returned when admission control rejects a campaign
	// because the bounded queue is at capacity (HTTP 429).
	ErrQueueFull = errors.New("serve: campaign queue full")
	// ErrShuttingDown is returned once Shutdown has begun (HTTP 503).
	ErrShuttingDown = errors.New("serve: scheduler shutting down")
)

// SchedulerConfig bounds a scheduler. Zero values select the defaults.
type SchedulerConfig struct {
	// QueueDepth bounds the number of campaigns waiting to run; Submit
	// fails with ErrQueueFull beyond it. Default 16.
	QueueDepth int
	// Parallel is each campaign's worker-pool bound (≤ 0 = GOMAXPROCS).
	Parallel int
}

// Scheduler owns a bounded campaign queue, a shared compile cache, and the
// dispatcher goroutine that executes campaigns. Safe for concurrent use.
type Scheduler struct {
	cfg    SchedulerConfig
	cache  *sim.CompileCache
	ctx    context.Context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	seq      int
	draining bool
}

// NewScheduler starts a scheduler with one dispatcher goroutine: campaigns
// queue behind each other and the worker pool stays fully owned by the
// running campaign. Call Shutdown to stop it.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:    cfg,
		cache:  sim.NewCompileCache(sim.DefaultCacheEntries),
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Job, cfg.QueueDepth),
		jobs:   make(map[string]*Job),
	}
	s.wg.Add(1)
	go s.dispatch()
	return s
}

func (s *Scheduler) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			j.run(s.ctx, scenario.RunOptions{
				Parallel: s.cfg.Parallel,
				Cache:    s.cache,
			})
		}
	}
}

// Submit expands and validates a spec (scale overrides the spec's when
// positive) and enqueues the campaign. It returns immediately: the Job
// exposes the event log, Wait, and the final report. Admission control is a
// bounded queue — ErrQueueFull when it is at capacity.
func (s *Scheduler) Submit(spec *scenario.Spec, scale float64) (*Job, error) {
	camp, err := spec.Campaign(scale)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrShuttingDown
	}
	s.seq++
	j := newJob(fmt.Sprintf("c%d", s.seq), camp)
	// The queued event precedes the enqueue, so it always precedes the
	// dispatcher's start event. The job is listed only once the queue has
	// accepted it, under the lock that guards draining, so a rejected
	// submission is never listed and Shutdown's drain sees every accepted job.
	j.emit(Event{Type: "queued", ID: j.ID, Name: j.Name, Runs: j.Runs})
	select {
	case s.queue <- j:
	default:
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	return j, nil
}

// Job returns a submitted campaign by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// CacheStats snapshots the shared compile cache's counters.
func (s *Scheduler) CacheStats() sim.CacheStats { return s.cache.Stats() }

// Cache exposes the shared compile cache (tests and embedding callers).
func (s *Scheduler) Cache() *sim.CompileCache { return s.cache }

// Shutdown stops admission, cancels the running campaigns cooperatively (at
// run granularity), marks still-queued campaigns canceled, and waits for the
// dispatcher — or for ctx, whichever ends first.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	// The dispatcher exits on the canceled context; whatever is still in
	// the queue will never run.
	for {
		select {
		case j := <-s.queue:
			j.finish(StatusCanceled, context.Canceled)
			continue
		default:
		}
		break
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states.
const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
)

// Event is one JSON-lines record of a campaign's event stream. Fields are
// populated per type: queued/start carry the campaign shape, progress the
// run counters, result the scenario and run counts, done the terminal status
// (and error, if any). The rendered report is not an event field: fetch it
// with Job.Report or GET /campaigns/{id}/report once the job is done.
type Event struct {
	Type     string `json:"type"`
	ID       string `json:"id,omitempty"`
	Name     string `json:"name,omitempty"`
	Points   int    `json:"points,omitempty"`
	Policies int    `json:"policies,omitempty"`
	Runs     int    `json:"runs,omitempty"`
	Done     int    `json:"done,omitempty"`
	Total    int    `json:"total,omitempty"`
	Compiles int    `json:"compiles,omitempty"` // distinct scenario keys (scenario.Result.Compiles), not cold compiles
	Status   Status `json:"status,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Job is one submitted campaign: an append-only event log plus the final
// report. All methods are safe for concurrent use.
//
// The campaign's name and shape are copied at submit. The expanded campaign
// (with its spec and any loaded traces) is held only until the job reaches a
// terminal state, so a finished job keeps its status, counters, event log and
// report, and nothing else.
type Job struct {
	ID       string
	Name     string // the spec's name
	Points   int    // grid points
	Policies int    // policies run at each point
	Runs     int    // Points × Policies

	mu       sync.Mutex
	campaign *scenario.Campaign // nil once terminal
	status   Status
	events   []Event
	changed  chan struct{}
	terminal bool
	err      error
	report   []byte
	compiles int
	progress int

	done chan struct{}
}

func newJob(id string, camp *scenario.Campaign) *Job {
	return &Job{
		ID:       id,
		Name:     camp.Spec.Name,
		Points:   len(camp.Points),
		Policies: len(camp.Policies),
		Runs:     camp.Runs(),
		campaign: camp,
		status:   StatusQueued,
		changed:  make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// run executes the campaign and drives the event log to a terminal state.
func (j *Job) run(ctx context.Context, opt scenario.RunOptions) {
	if ctx.Err() != nil {
		j.finish(StatusCanceled, ctx.Err())
		return
	}
	j.mu.Lock()
	j.status = StatusRunning
	camp := j.campaign
	j.mu.Unlock()
	j.emit(Event{Type: "start", ID: j.ID, Name: j.Name,
		Points: j.Points, Policies: j.Policies, Runs: j.Runs})
	opt.Context = ctx
	opt.OnProgress = func(done, total int) {
		j.mu.Lock()
		if done > j.progress {
			j.progress = done
		}
		j.mu.Unlock()
		j.emit(Event{Type: "progress", ID: j.ID, Done: done, Total: total})
	}
	res, err := camp.Run(opt)
	if err != nil {
		if ctx.Err() != nil {
			j.finish(StatusCanceled, err)
		} else {
			j.finish(StatusFailed, err)
		}
		return
	}
	var buf bytes.Buffer
	if _, err := res.WriteTo(&buf); err != nil {
		j.finish(StatusFailed, err)
		return
	}
	j.mu.Lock()
	j.report = buf.Bytes()
	j.compiles = res.Compiles
	j.mu.Unlock()
	j.emit(Event{Type: "result", ID: j.ID, Compiles: res.Compiles, Runs: j.Runs})
	j.finish(StatusDone, nil)
}

// emit appends an event and wakes every stream.
func (j *Job) emit(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// finish records the terminal state, emits the done event, and releases
// waiters. Idempotent: only the first terminal state sticks. Nothing runs or
// appends after it, so it drops the campaign and trims the event log to its
// length.
func (j *Job) finish(st Status, err error) {
	j.mu.Lock()
	if j.terminal {
		j.mu.Unlock()
		return
	}
	j.status = st
	j.err = err
	j.campaign = nil
	ev := Event{Type: "done", ID: j.ID, Status: st}
	if err != nil {
		ev.Error = err.Error()
	}
	events := make([]Event, 0, len(j.events)+1)
	j.events = append(append(events, j.events...), ev)
	j.terminal = true
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
	close(j.done)
}

// EventsSince returns the events from index i on, a channel closed on the
// next append, and whether the log is terminal. Streaming loop: emit the
// slice, advance i, return when terminal, otherwise wait on the channel.
func (j *Job) EventsSince(i int) ([]Event, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < 0 {
		i = 0
	}
	if i > len(j.events) {
		i = len(j.events)
	}
	evs := make([]Event, len(j.events)-i)
	copy(evs, j.events[i:])
	return evs, j.changed, j.terminal
}

// Wait blocks until the job reaches a terminal state (returning its error,
// nil for success) or ctx ends.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return j.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status returns the current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the terminal error (nil while running or when done).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Report returns the rendered campaign report (nil until done). The bytes
// are identical to Result.WriteTo on a direct run — cache hits included.
func (j *Job) Report() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Progress returns completed runs, total runs, and the number of distinct
// scenario keys (0 until the result event).
func (j *Job) Progress() (done, total, scenarios int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress, j.Runs, j.compiles
}
