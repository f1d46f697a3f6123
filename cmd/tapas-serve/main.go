// Command tapas-serve is the campaign daemon: a long-running HTTP service
// that accepts declarative scenario specs, schedules them onto the parallel
// campaign runner with bounded-queue admission control, streams per-campaign
// progress as JSON lines, and serves every compilation through a shared
// content-addressed compile cache — so repeated what-if campaigns skip
// sim.Compile entirely. Reports are byte-identical to tapas-campaign's
// stdout for the same spec.
//
// Usage:
//
//	tapas-serve -addr :8080
//	curl -X POST --data-binary @examples/scenarios/fig20-ablation.json localhost:8080/campaigns
//	curl localhost:8080/campaigns/c1/events   # JSON-lines progress stream
//	curl localhost:8080/campaigns/c1/report   # rendered report once done
//	curl localhost:8080/cachez                # compile-cache counters
//
// SIGINT/SIGTERM shut the daemon down gracefully: admission stops, queued
// campaigns are canceled, in-flight simulations finish their current runs,
// and open event streams receive their terminal event before the listener
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tapas-sim/tapas/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the testable entry point: it parses args, serves until the stop
// channel (or a signal) fires, and returns the process exit code. A nil stop
// installs the SIGINT/SIGTERM handler; tests pass their own channel. The
// bound address is printed to stdout ("listening on ...") once the daemon
// handles signals, so callers using -addr :0 can discover the port.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("tapas-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		parallel = fs.Int("parallel", 0, "worker pool size per campaign (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 16, "admission-control queue depth; submissions beyond it get HTTP 429")
		baseDir  = fs.String("base-dir", "", "directory relative trace paths in POSTed specs resolve against (\"\" = working directory)")
		grace    = fs.Duration("grace", 30*time.Second, "graceful-shutdown budget before the daemon exits anyway")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "tapas-serve: unexpected arguments (the daemon takes specs over HTTP, not argv)")
		return 2
	}

	sched := serve.NewScheduler(serve.SchedulerConfig{
		QueueDepth: *queue,
		Parallel:   *parallel,
	})
	srv := &http.Server{Handler: serve.NewServer(sched, *baseDir).Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "tapas-serve:", err)
		return 1
	}
	if stop == nil {
		ch := make(chan struct{})
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		go func() {
			<-sigs
			close(ch)
		}()
		stop = ch
	}
	// Announce only once the handler is in place: a signal sent right after
	// the announcement must start a graceful shutdown, not kill the process.
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve only returns on listener failure here; shutdown goes through
		// the stop path below.
		fmt.Fprintln(stderr, "tapas-serve:", err)
		return 1
	case <-stop:
	}

	fmt.Fprintln(stderr, "tapas-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Scheduler first: cancellation drives every job to a terminal event, so
	// open event streams end and Shutdown below can drain them cleanly.
	code := 0
	if err := sched.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "tapas-serve: scheduler shutdown:", err)
		code = 1
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(stderr, "tapas-serve: http shutdown:", err)
		code = 1
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "tapas-serve:", err)
		code = 1
	}
	return code
}
