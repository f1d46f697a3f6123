package sim

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/trace"
)

// -update regenerates the golden files under testdata (shard_golden.txt,
// request_golden.txt and placement_golden.txt).
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// shardScenario is a deliberately hostile scenario for the sharded tick
// kernel's dirty-set bookkeeping: a hot region (weather keeps moving the
// inlet base), mid-run power and cooling emergencies (global invalidation
// plus capping churn), and oversubscription (rows whose trailing servers sit
// outside the contiguous ID span the clean-row sweep uses).
func shardScenario() Scenario {
	sc := DefaultScenario()
	sc.Layout.Aisles = 2
	sc.Duration = 2 * time.Hour
	sc.Workload.Duration = sc.Duration
	sc.Workload.Servers = sc.Layout.Aisles * 2 * sc.Layout.RacksPerRow * sc.Layout.ServersPerRack
	sc.StartOffset = 9 * time.Hour // diurnal peak: active load, not an idle fleet
	sc.Region = trace.RegionHot
	sc.Oversubscribe = 0.2
	sc.Failures = []FailureEvent{
		{Kind: PowerFailure, At: 30 * time.Minute, Duration: 30 * time.Minute},
		{Kind: CoolingFailure, At: 75 * time.Minute, Duration: 20 * time.Minute},
	}
	return sc
}

// TestShardedRunsByteIdentical is the determinism property of the sharded
// tick kernel: for any shard count, and with runs racing each other over one
// shared compiled scenario (the campaign runner's -parallel shape), every
// Result field — full per-tick series included — matches the serial engine
// exactly. reflect.DeepEqual on float64 series is bit equality, so any
// reordered floating-point reduction fails here.
func TestShardedRunsByteIdentical(t *testing.T) {
	cs, err := Compile(shardScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []struct {
		name string
		new  func() Policy
	}{
		{"tapas", func() Policy { return core.NewFull() }},
		{"baseline", func() Policy { return core.New(core.Options{}) }},
	} {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			serial, err := cs.Variant(func(s *Scenario) { s.Shards = 1 }).Run(pol.new())
			if err != nil {
				t.Fatal(err)
			}
			shardCounts := []int{0, 2, 7, runtime.NumCPU(), -1}
			for _, n := range shardCounts {
				n := n
				res, err := cs.Variant(func(s *Scenario) { s.Shards = n }).Run(pol.new())
				if err != nil {
					t.Fatalf("shards=%d: %v", n, err)
				}
				if !reflect.DeepEqual(serial, res) {
					t.Errorf("shards=%d diverged from the serial engine", n)
				}
			}
			// Cross-run parallelism on top of intra-run sharding: all shard
			// counts race over the same compiled scenario, as under the
			// campaign runner's worker pool at any -parallel value.
			results := make([]*Result, len(shardCounts))
			errs := make([]error, len(shardCounts))
			var wg sync.WaitGroup
			for i, n := range shardCounts {
				i, n := i, n
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = cs.Variant(func(s *Scenario) { s.Shards = n }).Run(pol.new())
				}()
			}
			wg.Wait()
			for i, n := range shardCounts {
				if errs[i] != nil {
					t.Fatalf("concurrent shards=%d: %v", n, errs[i])
				}
				if !reflect.DeepEqual(serial, results[i]) {
					t.Errorf("concurrent shards=%d diverged from the serial engine", n)
				}
			}
		})
	}
}

// fingerprintResult renders a Result exactly: scalars and series hashes use
// the raw float64 bit patterns (%x hex floats, FNV-64 over Float64bits), so
// the golden pins bit-for-bit output, not rounded prints.
func fingerprintResult(r *Result) string {
	hash := func(xs []float64) uint64 {
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range xs {
			bits := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		return h.Sum64()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "policy %s tick %v ticks %d\n", r.Policy, r.Tick, r.Ticks)
	fmt.Fprintf(&sb, "maxTempC series fnv64a %016x last %x\n", hash(r.MaxTempC), r.MaxTempC[len(r.MaxTempC)-1])
	fmt.Fprintf(&sb, "peakRowPowerW series fnv64a %016x last %x\n", hash(r.PeakRowPowerW), r.PeakRowPowerW[len(r.PeakRowPowerW)-1])
	fmt.Fprintf(&sb, "totalPowerW series fnv64a %016x last %x\n", hash(r.TotalPowerW), r.TotalPowerW[len(r.TotalPowerW)-1])
	fmt.Fprintf(&sb, "maxTemp %x peakPower %x\n", r.MaxTemp(), r.PeakPower())
	fmt.Fprintf(&sb, "serverTicks %d thermal %d powerCap %d rejects %d\n",
		r.ServerTicks, r.ThermalThrottleSrvTicks, r.PowerCapSrvTicks, r.PlacementRejects)
	fmt.Fprintf(&sb, "saas demand %x served %x completed %x violated %x quality %x\n",
		r.SaaSDemandTokens, r.SaaSServedTokens, r.SaaSCompletedReqs, r.SaaSViolatedReqs, r.SaaSQualityWeight)
	fmt.Fprintf(&sb, "iaas capSum %x srvTicks %d\n", r.IaaSFreqCapSum, r.IaaSServerTicks)
	// Request-level SLO accounting: hash the per-endpoint sample series in
	// endpoint order (empty in binned mode, where the hashes pin the
	// zero-sample FNV offset basis).
	flat := func(series [][]float64) []float64 {
		var all []float64
		for _, s := range series {
			all = append(all, s...)
		}
		return all
	}
	violated := 0
	for _, v := range r.ReqViolated {
		violated += v
	}
	fmt.Fprintf(&sb, "req ttft fnv64a %016x tbt %016x queue %016x completed %d violated %d\n",
		hash(flat(r.ReqTTFT)), hash(flat(r.ReqTBT)), hash(flat(r.ReqQueueDelay)),
		r.RequestsCompleted(AllEndpoints), violated)
	return sb.String()
}

// TestShardGoldenSerialEqualsSharded pins serial ≡ sharded against a
// committed golden: both the serial engine and a 7-shard run must reproduce
// testdata/shard_golden.txt byte for byte. A regression in either path (or a
// nondeterministic reduction) cannot pass — the committed bits are the
// arbiter, not a run-to-run comparison.
func TestShardGoldenSerialEqualsSharded(t *testing.T) {
	cs, err := Compile(shardScenario())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, variant := range []struct {
		name   string
		shards int
	}{
		{"serial", 1},
		{"sharded-7", 7},
	} {
		res, err := cs.Variant(func(s *Scenario) { s.Shards = variant.shards }).Run(core.NewFull())
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		fmt.Fprintf(&sb, "== %s ==\n%s", variant.name, fingerprintResult(res))
	}
	got := sb.String()

	serial, sharded, ok := strings.Cut(got, "== sharded-7 ==\n")
	if !ok {
		t.Fatal("malformed fingerprint output")
	}
	if strings.TrimPrefix(serial, "== serial ==\n") != sharded {
		t.Errorf("serial and sharded fingerprints differ:\n%s", got)
	}
	matchGolden(t, filepath.Join("testdata", "shard_golden.txt"), got)
}

// TestRequestGoldenSerialEqualsSharded pins the request-level sample series
// bit for bit. The shard golden runs a binned scenario, so its request
// hashes cover no samples; here a replayed request log under TAPAS, SLO-EDF
// admission and the energy-aware power governor, each run serially and with
// 7 shards, must reproduce testdata/request_golden.txt, TTFT, TBT and
// queueing-delay hashes included.
func TestRequestGoldenSerialEqualsSharded(t *testing.T) {
	cs, err := Compile(requestScenario(syntheticRequests(300, 2, 7*time.Minute)))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, pol := range []struct {
		name string
		new  func() Policy
	}{
		{"tapas", func() Policy { return core.NewFull() }},
		{"slo-edf", func() Policy { return core.NewSLO(true) }},
		{"powergov-energy", func() Policy { return core.NewPowerGov(true) }},
	} {
		for _, shards := range []int{1, 7} {
			res, err := cs.Variant(func(s *Scenario) { s.Shards = shards }).Run(pol.new())
			if err != nil {
				t.Fatalf("%s shards=%d: %v", pol.name, shards, err)
			}
			fmt.Fprintf(&sb, "== %s shards=%d ==\n%s", pol.name, shards, fingerprintResult(res))
		}
	}
	matchGolden(t, filepath.Join("testdata", "request_golden.txt"), sb.String())
}

// matchGolden compares got with the committed golden file at path, or
// rewrites the file under -update.
func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from the committed golden %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
