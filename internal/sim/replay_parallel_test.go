package sim

import (
	"reflect"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
)

// TestReplayFanOutDeterministicAcrossWorkers pins the replay half of the
// fan-out contract at the RunParallel layer: a scenario compiled from a
// recorded workload trace (shared read-only, exactly like generated
// workloads) produces deeply-equal results for every job regardless of the
// worker count — the property campaign reports' byte-determinism rests on.
func TestReplayFanOutDeterministicAcrossWorkers(t *testing.T) {
	sc := SmallScenario()
	sc.Duration = 20 * time.Minute
	wl, err := GenerateWorkload(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Trace = wl
	cs, err := Compile(sc)
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 6
	run := func(workers int) []*Result {
		t.Helper()
		res, err := RunParallel(jobs, workers, func(_, job int) (*Result, error) {
			// Alternate policies so the pool replays the shared trace under
			// different mutation patterns, not six identical runs.
			if job%2 == 0 {
				return cs.Run(core.NewBaseline())
			}
			return cs.Run(core.NewFull())
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, workers := range []int{4, 8} {
		par := run(workers)
		for job := range seq {
			if !reflect.DeepEqual(seq[job], par[job]) {
				t.Errorf("replay job %d differs between 1 and %d workers", job, workers)
			}
		}
	}
}
