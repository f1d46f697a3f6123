package sim

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunParallelCtxPreCanceled proves a canceled context skips every job:
// nothing runs and the context's error is reported.
func TestRunParallelCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, workers := range []int{1, 4} {
		_, err := RunParallelCtx(ctx, 8, workers, func(_, job int) (int, error) {
			ran.Add(1)
			return job, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d jobs ran under a canceled context", n)
	}
}

// TestRunParallelCtxMidRunCancel cancels from inside a job on the serial
// path, where job order is deterministic: jobs before the cancellation run
// and complete, jobs after it are skipped with ctx.Err().
func TestRunParallelCtxMidRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	results, err := RunParallelCtx(ctx, 5, 1, func(_, job int) (int, error) {
		ran.Add(1)
		if job == 1 {
			cancel()
		}
		return job * 10, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 2 {
		t.Errorf("%d jobs ran, want 2 (jobs 0 and 1; the rest skipped)", n)
	}
	// In-flight results survive: the error return still carries the partial
	// results slice, and completed jobs keep their values.
	if results[0] != 0 || results[1] != 10 {
		t.Errorf("completed jobs lost their results: %v", results[:2])
	}
}

// TestRunParallelCtxJobErrorWins proves a genuine job failure earlier in job
// order is reported in preference to a later cancellation error.
func TestRunParallelCtxJobErrorWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := RunParallelCtx(ctx, 5, 1, func(_, job int) (int, error) {
		if job == 0 {
			return 0, boom
		}
		if job == 1 {
			cancel()
		}
		return job, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the job-0 failure", err)
	}
}

func TestRunParallelOrderingAndErrors(t *testing.T) {
	squares, err := RunParallel(50, 4, func(_, job int) (int, error) {
		return job * job, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range squares {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
	// The reported error is the lowest-index failure, independent of
	// scheduling; later jobs still run.
	ran := make([]bool, 20)
	_, err = RunParallel(20, 4, func(_, job int) (int, error) {
		ran[job] = true
		if job == 7 || job == 13 {
			return 0, fmt.Errorf("job %d failed", job)
		}
		return 0, nil
	})
	if err == nil || err.Error() != "job 7 failed" {
		t.Errorf("err = %v, want the lowest-index failure (job 7)", err)
	}
	for i, r := range ran {
		if !r {
			t.Errorf("job %d never ran", i)
		}
	}
	if out, err := RunParallel(0, 4, func(_, int2 int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Errorf("n=0 must be a no-op, got %v, %v", out, err)
	}
}
