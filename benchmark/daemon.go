package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/tapas-sim/tapas/benchmark/result"
	"github.com/tapas-sim/tapas/internal/regress"
	"github.com/tapas-sim/tapas/internal/sim"
)

// committedSpecs are the committed example campaigns the daemon clients
// resubmit; each has a golden report. They are pinned: no seed applies.
var committedSpecs = []string{"heatwave-sweep", "hetero-fleet", "rolling-emergencies", "replay-pinned"}

// freshSpec is resubmitted with a new seed per cycle, a compile-cache miss.
const freshSpec = "heatwave-sweep"

// daemonClients is the number of closed-loop clients, one keep-alive
// connection each.
const daemonClients = 2

// rssJobs is the number of measured submissions after which the daemon's
// peak memory is read. The daemon keeps every job, so its memory grows with
// the number of submissions; reading it at a fixed count keeps max_rss_mb
// from tracking the host's speed. A 25-s run makes 1,300 to 5,600
// submissions, the fewest when other tenants slow the host.
const rssJobs = 1000

// daemon is a running tapas-serve process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// startDaemon starts tapas-serve on a free loopback port with default flags
// and waits for its health check.
func startDaemon(root string, stderr io.Writer) (*daemon, error) {
	cmd := exec.Command(filepath.Join(root, ".bench_build", "tapas-serve"),
		"-addr", "127.0.0.1:0", "-base-dir", filepath.Join(root, "examples", "scenarios"))
	cmd.Stderr = stderr
	// The daemon must not outlive the benchmark, even a killed one.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tapas-serve (built by benchmark/run.sh): %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	br := bufio.NewReader(stdout)
	first, readErr := br.ReadString('\n')
	// Drain the rest of stdout, then reap the process.
	go func() {
		_, _ = io.Copy(io.Discard, br)
		d.done <- cmd.Wait()
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(first), "listening on ")
	if readErr != nil || !ok {
		d.stop()
		return nil, fmt.Errorf("tapas-serve did not report its address: %q %v", first, readErr)
	}
	d.base = "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("tapas-serve not healthy: %v", err)
		}
	}
}

// stop shuts the daemon down gracefully and waits for it to exit, killing it
// if it has not exited after 15 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	http *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, base: base}
}

// submission is one campaign followed from POST to report, with the times a
// client observes between its stages.
type submission struct {
	report                           []byte
	total, submit, queue, run, fetch float64
	rejected                         bool
}

// submit posts a spec, follows its event stream to the done event and
// fetches the report.
func (c *client) submit(body []byte) (submission, error) {
	var s submission
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	var job struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		s.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return s, fmt.Errorf("POST /campaigns: %s: %s", resp.Status, job.Error)
	}
	if err != nil {
		return s, fmt.Errorf("POST /campaigns: %w", err)
	}
	t1 := time.Now()
	resp, err = c.http.Get(c.base + "/campaigns/" + job.ID + "/events")
	if err != nil {
		return s, err
	}
	tStart, tDone := t1, time.Time{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Type   string `json:"type"`
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return s, fmt.Errorf("event stream: %w", err)
		}
		switch ev.Type {
		case "start":
			tStart = time.Now()
		case "done":
			tDone = time.Now()
			if ev.Status != "done" {
				resp.Body.Close()
				return s, fmt.Errorf("campaign %s ended %s: %s", job.ID, ev.Status, ev.Error)
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return s, fmt.Errorf("event stream: %w", err)
	}
	if tDone.IsZero() {
		return s, fmt.Errorf("campaign %s: event stream ended without done", job.ID)
	}
	resp, err = c.http.Get(c.base + "/campaigns/" + job.ID + "/report")
	if err != nil {
		return s, err
	}
	s.report, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, err
	}
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET report: %s", resp.Status)
	}
	t4 := time.Now()
	s.total = t4.Sub(t0).Seconds()
	s.submit = t1.Sub(t0).Seconds()
	s.queue = tStart.Sub(t1).Seconds()
	s.run = tDone.Sub(tStart).Seconds()
	s.fetch = t4.Sub(tDone).Seconds()
	return s, nil
}

// withSeed returns the spec JSON with its seed replaced.
func withSeed(spec []byte, seed uint64) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(spec, &m); err != nil {
		return nil, err
	}
	m["seed"] = json.RawMessage(strconv.FormatUint(seed, 10))
	return json.Marshal(m)
}

// freshSeed gives client i's cycle k a seed no other submission of this run
// uses, and never the committed specs' seed.
func freshSeed(runSeed uint64, i, k int) uint64 {
	return runSeed*1_000_000 + 1_000 + uint64(k*daemonClients+i)
}

// daemonSetup starts a daemon and submits every committed spec once, checking
// each report against its golden.
func daemonSetup(b *bench, specs, goldens map[string][]byte) (*daemon, error) {
	d, err := startDaemon(b.root, b.stderr)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.tr.CloseIdleConnections()
	for _, name := range committedSpecs {
		s, err := c.submit(specs[name])
		if err == nil && !bytes.Equal(s.report, goldens[name]) {
			err = fmt.Errorf("%s: report differs from its golden", name)
		}
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// runDaemon measures tapas-serve under closed-loop clients. Each client
// cycles four submissions: two committed specs (compile-cache hits), a fresh
// seed of heatwave-sweep (a miss) and that same spec again (a hit whose report
// must equal the miss's).
func runDaemon(b *bench) (result.Line, error) {
	specs := map[string][]byte{}
	goldens := map[string][]byte{}
	for _, name := range committedSpecs {
		var err error
		if specs[name], err = os.ReadFile(filepath.Join(b.root, "examples", "scenarios", name+".json")); err != nil {
			return result.Line{}, err
		}
		if goldens[name], err = os.ReadFile(filepath.Join(b.root, "internal", "scenario", "testdata", "golden", name+".txt")); err != nil {
			return result.Line{}, err
		}
	}
	var d *daemon
	var setups []float64
	for !b.enoughSetups(setups) {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = daemonSetup(b, specs, goldens); err != nil {
			return result.Line{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	cache0, err := cacheStats(d.base)
	if err != nil {
		return result.Line{}, err
	}
	rss0, err := procStatusMB(strconv.Itoa(d.pid()), "VmRSS")
	if err != nil {
		return result.Line{}, err
	}
	cpu0, err := procCPUSeconds(d.pid())
	if err != nil {
		return result.Line{}, err
	}
	var finished atomic.Int64
	var hwmOnce sync.Once
	var hwm float64
	var hwmErr error
	readHWM := func() { hwm, hwmErr = procStatusMB(strconv.Itoa(d.pid()), "VmHWM") }
	counted := func() {
		if finished.Add(1) == rssJobs {
			hwmOnce.Do(readHWM)
		}
	}
	deadline := time.Now().Add(b.seconds)
	subs := make([][]submission, daemonClients)
	errs := make([][]error, daemonClients)
	var wg sync.WaitGroup
	for i := 0; i < daemonClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs[i], errs[i] = clientLoop(b, d.base, i, deadline, specs, goldens, counted)
		}()
	}
	wg.Wait()
	hwmOnce.Do(readHWM) // a run that fell short of rssJobs reads it at the end
	if hwmErr != nil {
		return result.Line{}, hwmErr
	}
	cpu1, err := procCPUSeconds(d.pid())
	if err != nil {
		return result.Line{}, err
	}
	rss1, err := procStatusMB(strconv.Itoa(d.pid()), "VmRSS")
	if err != nil {
		return result.Line{}, err
	}
	cache1, err := cacheStats(d.base)
	if err != nil {
		return result.Line{}, err
	}

	var total, submit, queue, run, fetch []float64
	attempted, failed, rejected := 0, 0, 0
	for i := range subs {
		for j, s := range subs[i] {
			attempted++
			if err := errs[i][j]; err != nil {
				failed++
				if s.rejected {
					rejected++
				}
				fmt.Fprintf(b.stderr, "client %d submission %d failed: %v\n", i, j, err)
				continue
			}
			total = append(total, s.total)
			submit = append(submit, s.submit)
			queue = append(queue, s.queue)
			run = append(run, s.run)
			fetch = append(fetch, s.fetch)
		}
	}
	if attempted == 0 {
		return result.Line{}, errors.New("no submission completed")
	}
	ops := float64(attempted)
	// When every submission failed there are no times, and regress.Percentile's
	// NaN cannot be written as JSON: the run then reports them as 0.
	pct := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return regress.Percentile(xs, p)
	}
	line := result.Line{Correct: failed == 0, Attempted: attempted, Failed: failed}
	if !b.trace {
		line.Metrics = fill(endToEnd, map[string]float64{
			"setup_s":      regress.Percentile(setups, 50),
			"op_p50_s":     pct(total, 50),
			"cpu_s_per_op": (cpu1 - cpu0) / ops,
			"max_rss_mb":   hwm,
		})
		return line, nil
	}
	v := map[string]float64{
		"sim.compile.calls":        float64(cache1.Compiles-cache0.Compiles) / ops,
		"sim.cache.evictions":      float64(cache1.Scenarios.Evictions-cache0.Scenarios.Evictions) / ops,
		"serve.op_p99_s":           pct(total, 99),
		"serve.submit_s":           pct(submit, 50),
		"serve.queue_wait_s":       pct(queue, 50),
		"serve.run_s":              pct(run, 50),
		"serve.report_fetch_s":     pct(fetch, 50),
		"serve.rejected":           float64(rejected) / ops,
		"serve.rss_mb_per_1k_jobs": (rss1 - rss0) / ops * 1000,
	}
	hits := cache1.Scenarios.Hits - cache0.Scenarios.Hits
	if n := hits + cache1.Scenarios.Misses - cache0.Scenarios.Misses; n > 0 {
		v["sim.cache.hit_ratio"] = float64(hits) / float64(n)
	}
	line.Metrics = fill(perLayer, v)
	return line, nil
}

// clientLoop runs client i's submission cycle until the deadline and returns
// every submission with its error, in order. counted is called after each.
func clientLoop(b *bench, base string, i int, deadline time.Time, specs, goldens map[string][]byte, counted func()) ([]submission, []error) {
	c := newClient(base)
	defer c.tr.CloseIdleConnections()
	var subs []submission
	var errs []error
	add := func(s submission, err error) {
		subs = append(subs, s)
		errs = append(errs, err)
		counted()
	}
	for k := 0; ; k++ {
		for step := 0; step < 2; step++ {
			if time.Now().After(deadline) {
				return subs, errs
			}
			name := committedSpecs[(2*k+2*i+step)%len(committedSpecs)]
			s, err := c.submit(specs[name])
			if err == nil && !bytes.Equal(s.report, goldens[name]) {
				err = fmt.Errorf("%s: report differs from its golden", name)
			}
			add(s, err)
		}
		if time.Now().After(deadline) {
			return subs, errs
		}
		body, err := withSeed(specs[freshSpec], freshSeed(b.seed, i, k))
		if err != nil {
			add(submission{}, err)
			continue
		}
		miss, err := c.submit(body)
		add(miss, err)
		if err != nil || time.Now().After(deadline) {
			continue
		}
		hit, err := c.submit(body)
		if err == nil && !bytes.Equal(hit.report, miss.report) {
			err = fmt.Errorf("%s seed %d: resubmission differs from the first submission", freshSpec, freshSeed(b.seed, i, k))
		}
		add(hit, err)
	}
}

// probe is the client for health checks and cache counters.
var probe = &http.Client{Timeout: 10 * time.Second}

// cacheStats reads the daemon's compile-cache counters.
func cacheStats(base string) (sim.CacheStats, error) {
	var st sim.CacheStats
	resp, err := probe.Get(base + "/cachez")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /cachez: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
