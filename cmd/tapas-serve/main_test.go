package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a strings.Builder safe for the concurrent writer/reader the
// daemon test needs (run writes from its goroutine, the test polls).
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

const smokeSpec = `{
  "name": "smoke",
  "layout": {"preset": "small"},
  "duration": "10m",
  "policies": ["baseline"],
  "report": {"format": "csv"}
}`

// startDaemon runs the daemon with args on an ephemeral port and returns
// its base URL, once the listener is announced on stdout, and the channel
// its exit code arrives on.
func startDaemon(t *testing.T, stdout, stderr *syncBuffer, stop <-chan struct{}, args ...string) (string, <-chan int) {
	t.Helper()
	code := make(chan int, 1)
	go func() { code <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), stdout, stderr, stop) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if out := stdout.String(); strings.HasPrefix(out, "listening on ") {
			return "http://" + strings.TrimSpace(strings.TrimPrefix(out, "listening on ")), code
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submit posts a spec and returns the new campaign's ID.
func submit(t *testing.T, base, spec string) string {
	t.Helper()
	resp, err := http.Post(base+"/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /campaigns = %d", resp.StatusCode)
	}
	return created.ID
}

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, runs one
// campaign through the HTTP API, and exercises graceful shutdown via the
// test stop channel.
func TestRunServesAndShutsDown(t *testing.T) {
	var stdout, stderr syncBuffer
	stop := make(chan struct{})
	base, code := startDaemon(t, &stdout, &stderr, stop)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}

	id := submit(t, base, smokeSpec)

	// The events stream ends once the campaign is done; then the report
	// renders as CSV.
	resp, err = http.Get(base + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"type":"done"`) {
		t.Fatalf("event stream missing terminal event:\n%s", events)
	}
	resp, err = http.Get(base + "/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(report), "spec,policy,") {
		t.Fatalf("report = %q", report)
	}

	close(stop)
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("exit code %d; stderr: %s", c, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("stderr missing shutdown notice: %q", stderr.String())
	}
}

// TestRunGraceExpiresWhileCampaignRuns pins the shutdown budget: when a
// campaign is still running as -grace expires, run stops waiting for it and
// for the campaign's open event stream, reports both unfinished shutdowns
// and exits 1.
func TestRunGraceExpiresWhileCampaignRuns(t *testing.T) {
	var stdout, stderr syncBuffer
	stop := make(chan struct{})
	base, code := startDaemon(t, &stdout, &stderr, stop, "-grace", "1ns", "-parallel", "1")
	// Three paper-scale days on the large preset run for about a second,
	// far longer than the gap between seeing the job run and stopping.
	id := submit(t, base, `{"name":"slow","duration":"72h","policies":["baseline"]}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == "running" {
			break
		}
		if job.Status != "queued" || time.Now().After(deadline) {
			t.Fatalf("campaign status %q, want it running", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	events, err := http.Get(base + "/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()

	close(stop)
	select {
	case c := <-code:
		if c != 1 {
			t.Errorf("exit code %d, want 1; stderr: %s", c, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not give up after its grace budget")
	}
	for _, want := range []string{"scheduler shutdown", "http shutdown"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr does not report the unfinished %s: %q", want, stderr.String())
		}
	}
}

// TestRunShutsDownOnSIGTERM signals the test process once the daemon
// announces its address: run installs its handler before announcing, so
// SIGTERM starts a graceful shutdown.
func TestRunShutsDownOnSIGTERM(t *testing.T) {
	var stdout, stderr syncBuffer
	_, code := startDaemon(t, &stdout, &stderr, nil)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Errorf("exit code %d; stderr: %s", c, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if !strings.Contains(stderr.String(), "shutting down") {
		t.Errorf("stderr missing shutdown notice: %q", stderr.String())
	}
}

// TestRunUsageErrors pins the CLI contract.
func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run([]string{"-bogus"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	stderr = syncBuffer{}
	if code := run([]string{"positional"}, &stdout, &stderr, nil); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unexpected arguments") {
		t.Errorf("stderr = %q", stderr.String())
	}
	stderr = syncBuffer{}
	if code := run([]string{"-addr", "256.0.0.1:bogus"}, &stdout, &stderr, nil); code != 1 {
		t.Errorf("bad addr: exit %d, want 1", code)
	}
}
