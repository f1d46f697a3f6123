package sim

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/cluster"
	"github.com/tapas-sim/tapas/internal/core"
	"github.com/tapas-sim/tapas/internal/trace"
)

// -update regenerates the golden files under testdata (kernel_golden.txt,
// request_golden.txt and placement_golden.txt).
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// hostileScenario is a deliberately hostile scenario for the tick kernel: a
// hot region (weather keeps moving the inlet base), mid-run power and
// cooling emergencies (capping churn), and oversubscription (rows whose
// trailing servers sit at the end of the server-ID space).
func hostileScenario() Scenario {
	sc := DefaultScenario()
	sc.Layout.Aisles = 2
	sc.Duration = 2 * time.Hour
	sc.StartOffset = 9 * time.Hour // diurnal peak: active load, not an idle fleet
	sc.Region = trace.RegionHot
	sc.Oversubscribe = 0.2
	sc.Failures = []FailureEvent{
		{Kind: PowerFailure, At: 30 * time.Minute, Duration: 30 * time.Minute},
		{Kind: CoolingFailure, At: 75 * time.Minute, Duration: 20 * time.Minute},
	}
	return sc
}

// heatwaveScenario is hostileScenario in a 45 °C region at its afternoon
// peak: hot enough that GPUs hit the throttle limit, so hardware thermal
// caps feed the IaaS cap loss.
func heatwaveScenario() Scenario {
	sc := hostileScenario()
	sc.Region.MeanC = 45
	sc.Region.DiurnalAmpC = 10
	sc.StartOffset = 13 * time.Hour
	return sc
}

// TestConcurrentRunsMatchLoneRun races TAPAS and baseline runs over one
// shared compiled scenario, the campaign runner's -parallel shape: every
// Result field, full per-tick series included, must match a lone run of the
// same policy exactly.
// reflect.DeepEqual on float64 series is bit equality, so state leaking
// between runs through the compiled artifacts fails here.
func TestConcurrentRunsMatchLoneRun(t *testing.T) {
	cs, err := Compile(hostileScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []struct {
		name string
		new  func() Policy
	}{
		{"tapas", func() Policy { return core.NewFull() }},
		{"baseline", func() Policy { return core.NewBaseline() }},
	} {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			t.Parallel() // the two policies' runs race each other too
			lone, err := cs.Run(pol.new())
			if err != nil {
				t.Fatal(err)
			}
			results := make([]*Result, 4)
			errs := make([]error, len(results))
			var wg sync.WaitGroup
			for i := range results {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = cs.Run(pol.new())
				}()
			}
			wg.Wait()
			for i, res := range results {
				if errs[i] != nil {
					t.Fatalf("concurrent run %d: %v", i, errs[i])
				}
				if !reflect.DeepEqual(lone, res) {
					t.Errorf("concurrent run %d diverged from the lone run", i)
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
	fmt.Fprintf(&sb, "freqCap %d endpoint energyJ fnv64a %016x servedTokens fnv64a %016x\n",
		r.FreqCapSrvTicks, hash(r.EndpointEnergyJ), hash(r.EndpointServedTokens))
	return sb.String()
}

// TestKernelGolden pins the tick kernel against a committed golden: TAPAS
// and the baseline on the hostile scenario, and both on its heatwave
// variant, must reproduce testdata/kernel_golden.txt byte for byte. TAPAS
// caps nothing on the hostile scenario, so the capping reductions
// (frequency-capped and power-capped server-ticks, IaaS cap loss) are pinned
// by the baseline and by the heatwave runs, whose GPUs reach the hardware
// throttle limit.
func TestKernelGolden(t *testing.T) {
	hostile, err := Compile(hostileScenario())
	if err != nil {
		t.Fatal(err)
	}
	heat, err := Compile(heatwaveScenario())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, run := range []struct {
		name string
		cs   *CompiledScenario
		pol  Policy
	}{
		{"tapas", hostile, core.NewFull()},
		{"baseline", hostile, core.NewBaseline()},
		{"heatwave baseline", heat, core.NewBaseline()},
		{"heatwave tapas", heat, core.NewFull()},
	} {
		var st *cluster.State
		sc := run.cs.Scenario
		sc.Observer = func(live *cluster.State) { st = live }
		res, err := run.cs.ForScenario(sc).Run(run.pol)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		fmt.Fprintf(&sb, "== %s ==\n%s%s", run.name, fingerprintResult(res), fingerprintPeaks(st))
	}
	matchGolden(t, filepath.Join("testdata", "kernel_golden.txt"), sb.String())
}

// fingerprintPeaks renders the customer-peak load estimates a run left in
// its state, which the kernel updates from every IaaS server's load, by
// float bits in ascending customer order.
func fingerprintPeaks(st *cluster.State) string {
	ids := make([]int, 0, len(st.CustomerPeakLoad))
	for c := range st.CustomerPeakLoad {
		ids = append(ids, c)
	}
	sort.Ints(ids)
	h := fnv.New64a()
	var buf [16]byte
	for _, c := range ids {
		binary.LittleEndian.PutUint64(buf[:8], uint64(c))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(st.CustomerPeakLoad[c]))
		h.Write(buf[:])
	}
	return fmt.Sprintf("customerPeak fnv64a %016x peakEpoch %d\n", h.Sum64(), st.PeakEpoch)
}

// TestRequestGolden pins the request-level sample series bit for bit. The
// kernel golden runs a binned scenario, so its request hashes cover no
// samples; here a replayed request log under TAPAS, SLO-EDF admission and
// the energy-aware power governor must reproduce
// testdata/request_golden.txt, TTFT, TBT and queueing-delay hashes
// included.
func TestRequestGolden(t *testing.T) {
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
		res, err := cs.Run(pol.new())
		if err != nil {
			t.Fatalf("%s: %v", pol.name, err)
		}
		fmt.Fprintf(&sb, "== %s ==\n%s", pol.name, fingerprintResult(res))
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
