package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/scenario"
	"github.com/tapas-sim/tapas/internal/sim"
)

// smokeSpec is a fast single-run campaign used across the serve tests.
const smokeSpec = `{
  "name": "smoke",
  "layout": {"preset": "small"},
  "duration": "10m",
  "policies": ["baseline"],
  "report": {"format": "csv"}
}`

func parseSpec(t *testing.T, body string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Parse([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func newTestScheduler(t *testing.T, cfg SchedulerConfig) *Scheduler {
	t.Helper()
	s := NewScheduler(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("scheduler shutdown: %v", err)
		}
	})
	return s
}

// TestSchedulerRunsCampaign submits one campaign and checks the full event
// sequence, the progress counters, and that the report is byte-identical to
// a direct Campaign.Run of the same spec.
func TestSchedulerRunsCampaign(t *testing.T) {
	s := newTestScheduler(t, SchedulerConfig{})
	job, err := s.Submit(parseSpec(t, smokeSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.Status() != StatusDone {
		t.Fatalf("status = %s, want done", job.Status())
	}

	evs, _, terminal := job.EventsSince(0)
	if !terminal {
		t.Fatal("event log not terminal after Wait")
	}
	var types []string
	for _, ev := range evs {
		types = append(types, ev.Type)
	}
	want := []string{"queued", "start", "progress", "result", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("event sequence %v, want %v", types, want)
	}
	done, total, compiles := job.Progress()
	if done != 1 || total != 1 || compiles != 1 {
		t.Errorf("progress done=%d total=%d compiles=%d, want 1/1/1", done, total, compiles)
	}

	c, err := parseSpec(t, smokeSpec).Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := res.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if got := string(job.Report()); got != sb.String() {
		t.Errorf("scheduler report differs from direct run:\n--- sched ---\n%s--- direct ---\n%s", got, sb.String())
	}
}

// TestSchedulerSharesCacheAcrossJobs proves two submissions of the same spec
// compile once: the daemon's whole point.
func TestSchedulerSharesCacheAcrossJobs(t *testing.T) {
	s := newTestScheduler(t, SchedulerConfig{})
	for i := 0; i < 2; i++ {
		job, err := s.Submit(parseSpec(t, smokeSpec), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st := s.CacheStats()
	if st.Compiles != 1 {
		t.Errorf("two identical campaigns performed %d compiles, want 1", st.Compiles)
	}
	if st.Scenarios.Hits == 0 {
		t.Error("second campaign recorded no scenario cache hits")
	}
}

// TestSchedulerQueueFull pins admission control deterministically: with the
// dispatcher stopped (white-box cancel) nothing drains the queue, so
// submissions beyond QueueDepth fail with ErrQueueFull and are not retained.
func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(SchedulerConfig{QueueDepth: 2})
	s.cancel()
	s.wg.Wait() // dispatcher gone; the queue can only fill
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(parseSpec(t, smokeSpec), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(parseSpec(t, smokeSpec), 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("%d jobs retained, want 2 (the rejected one is dropped)", got)
	}
	// Shutdown drains the still-queued jobs as canceled.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range s.Jobs() {
		if j.Status() != StatusCanceled {
			t.Errorf("job %s status = %s, want canceled", j.ID, j.Status())
		}
	}
	if _, err := s.Submit(parseSpec(t, smokeSpec), 0); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("post-shutdown submission: err = %v, want ErrShuttingDown", err)
	}
}

// TestSchedulerJobsUnderConcurrentSubmit hammers Submit from many goroutines
// against a one-slot queue that a stand-in dispatcher keeps draining, so
// acceptances and rejections interleave. A rejected submission must never
// displace an accepted one: Jobs, and GET /campaigns which renders every
// listed job, list exactly the accepted jobs.
func TestSchedulerJobsUnderConcurrentSubmit(t *testing.T) {
	// Several Ps let the OS interleave submitters even on one CPU (or
	// -cpu 1), where a single P would rarely preempt one mid-Submit.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	spec := parseSpec(t, smokeSpec)
	for round := 0; round < 20; round++ {
		s := NewScheduler(SchedulerConfig{QueueDepth: 1})
		s.cancel()
		s.wg.Wait() // dispatcher gone; the drain below empties the queue instead
		stop := make(chan struct{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				select {
				case j := <-s.queue:
					j.finish(StatusCanceled, context.Canceled)
				case <-stop:
					return
				}
			}
		}()

		var mu sync.Mutex
		accepted := make(map[string]bool)
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					j, err := s.Submit(spec, 0)
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					accepted[j.ID] = true
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		close(stop)
		<-drained

		jobs := s.Jobs()
		if len(jobs) != len(accepted) {
			t.Fatalf("round %d: Jobs() lists %d jobs, want the %d accepted", round, len(jobs), len(accepted))
		}
		for _, j := range jobs {
			if j == nil {
				t.Fatalf("round %d: Jobs() lists a nil job", round)
			}
			if !accepted[j.ID] {
				t.Fatalf("round %d: Jobs() lists %s, which Submit rejected", round, j.ID)
			}
		}
		rec := httptest.NewRecorder()
		NewServer(s, "").Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/campaigns", nil))
		var listed []jobJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &listed); rec.Code != http.StatusOK || err != nil || len(listed) != len(accepted) {
			t.Fatalf("round %d: GET /campaigns = %d (%v) listing %d jobs, want 200 listing %d",
				round, rec.Code, err, len(listed), len(accepted))
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerRejectsInvalidSpec proves validation happens at admission.
func TestSchedulerRejectsInvalidSpec(t *testing.T) {
	s := newTestScheduler(t, SchedulerConfig{})
	spec := parseSpec(t, smokeSpec)
	spec.Policies = []string{"bogus"}
	if _, err := s.Submit(spec, 0); err == nil {
		t.Fatal("invalid spec admitted")
	}
}

func newTestServer(t *testing.T) (*Scheduler, *httptest.Server) {
	t.Helper()
	sched := newTestScheduler(t, SchedulerConfig{})
	ts := httptest.NewServer(NewServer(sched, "").Handler())
	t.Cleanup(ts.Close)
	return sched, ts
}

// TestHTTPSubmitStreamReport drives the full HTTP API: POST a spec, stream
// its JSON-lines events to completion, fetch the report, and check the
// listing and cache endpoints.
func TestHTTPSubmitStreamReport(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /campaigns = %d, want 201", resp.StatusCode)
	}
	var created struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if created.ID == "" || created.Name != "smoke" {
		t.Fatalf("created = %+v", created)
	}

	// Stream events until the terminal line; the stream must end on its own.
	resp, err = http.Get(ts.URL + "/campaigns/" + created.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[len(types)-1] != "done" {
		t.Fatalf("event stream %v does not end with done", types)
	}

	resp, err = http.Get(ts.URL + "/campaigns/" + created.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(report), "spec,policy,") {
		t.Errorf("report status=%d body=%q", resp.StatusCode, report)
	}

	resp, err = http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []struct {
		ID     string `json:"id"`
		Status Status `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jobs) != 1 || jobs[0].Status != StatusDone {
		t.Errorf("GET /campaigns = %+v", jobs)
	}

	resp, err = http.Get(ts.URL + "/cachez")
	if err != nil {
		t.Fatal(err)
	}
	var stats sim.CacheStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Compiles != 1 || stats.Scenarios.Entries != 1 {
		t.Errorf("/cachez = %+v, want 1 compile / 1 entry", stats)
	}
}

// TestHTTPErrors covers the API's failure statuses: bad spec 400, unknown
// campaign 404, report before completion 409, healthz 200.
func TestHTTPErrors(t *testing.T) {
	sched, ts := newTestServer(t)

	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(`{"name":"x","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec = %d, want 400", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/campaigns?scale=-1", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative scale = %d, want 400", resp.StatusCode)
	}

	// A scale must parse whole and lie in [0, 1]: NaN and Inf would collapse
	// the run to the presets' floors, and a trailing suffix is not a number.
	for _, q := range []string{"NaN", "Inf", "2", "0.5junk"} {
		resp, err = http.Post(ts.URL+"/campaigns?scale="+q, "application/json", strings.NewReader(smokeSpec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("scale=%s = %d, want 400", q, resp.StatusCode)
		}
	}

	resp, err = http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"name":"x","layout":{"preset":"small"},"duration":"30m","tick":"1h"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("scenario shorter than one tick = %d, want 400", resp.StatusCode)
	}

	// A negative start offset, as a field or as an axis value, sizes the
	// weather series negative; the daemon must refuse it before any job runs.
	for _, body := range []string{
		`{"name":"x","layout":{"preset":"small"},"start_offset":"-5h","duration":"10m"}`,
		`{"name":"x","layout":{"preset":"small"},"duration":"10m","axes":[{"param":"start_offset","values":["-5h"]}]}`,
	} {
		resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("negative start offset %s = %d, want 400", body, resp.StatusCode)
		}
	}

	for _, path := range []string{"/campaigns/nope", "/campaigns/nope/events", "/campaigns/nope/report"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", resp.StatusCode)
	}

	// A queued-but-never-run job has no report: 409. Build it on a drained
	// scheduler so it deterministically never starts.
	stuck := NewScheduler(SchedulerConfig{QueueDepth: 1})
	stuck.cancel()
	stuck.wg.Wait()
	tsStuck := httptest.NewServer(NewServer(stuck, "").Handler())
	defer tsStuck.Close()
	resp, err = http.Post(tsStuck.URL+"/campaigns", "application/json", strings.NewReader(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(tsStuck.URL + "/campaigns/" + created.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("report before completion = %d, want 409", resp.StatusCode)
	}
	if err := stuck.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = sched
}

// TestHTTPQueueFull429 maps ErrQueueFull to HTTP 429 against a scheduler
// whose dispatcher is stopped, so the outcome is deterministic.
func TestHTTPQueueFull429(t *testing.T) {
	s := NewScheduler(SchedulerConfig{QueueDepth: 1})
	s.cancel()
	s.wg.Wait()
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(NewServer(s, "").Handler())
	defer ts.Close()

	for i, want := range []int{http.StatusCreated, http.StatusTooManyRequests} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(smokeSpec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("submission %d = %d, want %d", i, resp.StatusCode, want)
		}
	}
}

// TestFinishedJobsDropTheirCampaign pins what a job keeps once it is
// terminal: done, failed and canceled-while-queued jobs reference no
// campaign (and so no spec or trace), and their event log is trimmed to its
// length, while jobView, Progress, EventsSince and Report answer as they
// did while the campaign was held.
func TestFinishedJobsDropTheirCampaign(t *testing.T) {
	const twoPolicies = `{
  "name": "pair",
  "layout": {"preset": "small"},
  "duration": "10m",
  "policies": ["baseline", "tapas"],
  "report": {"format": "csv"}
}`
	type snapshot struct {
		view                  jobJSON
		done, total, compiles int
		events                []Event
		report                []byte
	}
	check := func(j *Job, want snapshot) {
		t.Helper()
		j.mu.Lock()
		camp, n, c := j.campaign, len(j.events), cap(j.events)
		j.mu.Unlock()
		if camp != nil {
			t.Errorf("%s job %s still holds its campaign", want.view.Status, j.ID)
		}
		if n != c {
			t.Errorf("%s job %s keeps %d event slots for %d events", want.view.Status, j.ID, c, n)
		}
		if got := jobView(j); got != want.view {
			t.Errorf("jobView = %+v, want %+v", got, want.view)
		}
		if done, total, compiles := j.Progress(); done != want.done || total != want.total || compiles != want.compiles {
			t.Errorf("Progress = %d/%d/%d, want %d/%d/%d", done, total, compiles, want.done, want.total, want.compiles)
		}
		evs, _, terminal := j.EventsSince(0)
		if !terminal || !reflect.DeepEqual(evs, want.events) {
			t.Errorf("EventsSince(0) = %+v (terminal %v), want %+v", evs, terminal, want.events)
		}
		if got := j.Report(); !bytes.Equal(got, want.report) {
			t.Errorf("Report = %q, want %q", got, want.report)
		}
	}

	// Done: a one-point, two-policy campaign through the dispatcher.
	s := newTestScheduler(t, SchedulerConfig{})
	j, err := s.Submit(parseSpec(t, twoPolicies), 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Name != "pair" || j.Points != 1 || j.Policies != 2 || j.Runs != 2 {
		t.Fatalf("job shape %q %d×%d=%d, want pair 1×2=2", j.Name, j.Points, j.Policies, j.Runs)
	}
	if err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	c, err := parseSpec(t, twoPolicies).Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if _, err := res.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	evs, _, _ := j.EventsSince(0)
	progress := evs[2 : len(evs)-2] // one per run, in completion order
	check(j, snapshot{
		view: jobJSON{ID: j.ID, Name: "pair", Status: StatusDone, Runs: 2, Done: 2, Compiles: 1},
		done: 2, total: 2, compiles: 1,
		events: append(append([]Event{
			{Type: "queued", ID: j.ID, Name: "pair", Runs: 2},
			{Type: "start", ID: j.ID, Name: "pair", Points: 1, Policies: 2, Runs: 2},
		}, progress...),
			Event{Type: "result", ID: j.ID, Compiles: 1, Runs: 2},
			Event{Type: "done", ID: j.ID, Status: StatusDone}),
		report: direct.Bytes(),
	})
	var dones []int
	for _, ev := range progress {
		if ev.Type != "progress" || ev.ID != j.ID || ev.Total != 2 {
			t.Errorf("run event %+v, want progress of 2 runs", ev)
		}
		dones = append(dones, ev.Done)
	}
	if slices.Sort(dones); !slices.Equal(dones, []int{1, 2}) {
		t.Errorf("progress events count %v runs, want 1 and 2", dones)
	}

	// Failed: a grid point whose layout cannot be built fails its compile.
	camp, err := parseSpec(t, smokeSpec).Campaign(0)
	if err != nil {
		t.Fatal(err)
	}
	camp.Points[0].Scenario.Layout.Aisles = 0
	j = newJob("c1", camp)
	j.run(context.Background(), scenario.RunOptions{Cache: sim.NewCompileCache(0)})
	failure := j.Err()
	if j.Status() != StatusFailed || failure == nil {
		t.Fatalf("broken campaign ended %s (%v), want failed", j.Status(), failure)
	}
	check(j, snapshot{
		view:  jobJSON{ID: "c1", Name: "smoke", Status: StatusFailed, Runs: 1, Error: failure.Error()},
		total: 1,
		events: []Event{
			{Type: "start", ID: "c1", Name: "smoke", Points: 1, Policies: 1, Runs: 1},
			{Type: "done", ID: "c1", Status: StatusFailed, Error: failure.Error()},
		},
	})

	// Canceled while queued: the dispatcher is gone, and Shutdown drains
	// the queue.
	stuck := NewScheduler(SchedulerConfig{QueueDepth: 1})
	stuck.cancel()
	stuck.wg.Wait()
	j, err = stuck.Submit(parseSpec(t, smokeSpec), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := stuck.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	check(j, snapshot{
		view:  jobJSON{ID: j.ID, Name: "smoke", Status: StatusCanceled, Runs: 1, Error: context.Canceled.Error()},
		total: 1,
		events: []Event{
			{Type: "queued", ID: j.ID, Name: "smoke", Runs: 1},
			{Type: "done", ID: j.ID, Status: StatusCanceled, Error: context.Canceled.Error()},
		},
	})
}
