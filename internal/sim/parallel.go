package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunParallel executes n independent jobs on a bounded worker pool and
// collects their results in job order, so output is byte-identical no matter
// how many workers run. Each fn invocation receives the worker index (for
// per-worker scratch reuse) and the job index (for deterministic per-job
// seeding). workers ≤ 0 selects GOMAXPROCS; a single worker degenerates to
// a plain sequential loop on the calling goroutine.
//
// Every job runs even when an earlier one fails; the error reported is the
// one with the lowest job index, which again keeps the outcome independent
// of scheduling.
func RunParallel[T any](n, workers int, fn func(worker, job int) (T, error)) ([]T, error) {
	return RunParallelCtx(context.Background(), n, workers, fn)
}

// RunParallelCtx is RunParallel with cooperative cancellation: once ctx is
// done, jobs not yet started are skipped and recorded as ctx.Err() instead
// of running (in-flight jobs finish — fn is not interrupted mid-run). The
// error reported is still the one with the lowest job index, so a genuine
// job failure that ran before the cancellation wins over the cancellation
// error when it sits earlier in job order. Long-running services (the
// campaign daemon) use this to shed queued work on shutdown at run
// granularity.
func RunParallelCtx[T any](ctx context.Context, n, workers int, fn func(worker, job int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	errs := make([]error, n)
	if workers == 1 {
		for job := 0; job < n; job++ {
			if err := ctx.Err(); err != nil {
				errs[job] = err
				continue
			}
			results[job], errs[job] = fn(0, job)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(worker int) {
				defer wg.Done()
				for {
					job := int(next.Add(1)) - 1
					if job >= n {
						return
					}
					if err := ctx.Err(); err != nil {
						errs[job] = err
						continue
					}
					results[job], errs[job] = fn(worker, job)
				}
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// ResolveWorkers maps the "unset" worker count (≤ 0) to GOMAXPROCS.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}
