package transform

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tapas-sim/tapas/internal/trace"
)

// genWorkload builds a small deterministic mixed workload.
func genWorkload(t *testing.T, saas float64, seed uint64) *trace.Workload {
	t.Helper()
	w, err := trace.Generate(trace.WorkloadConfig{
		Servers: 60, SaaSFraction: saas, Duration: 6 * time.Hour, Endpoints: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func countKind(w *trace.Workload, k trace.VMKind) int {
	n := 0
	for _, vm := range w.VMs {
		if vm.Kind == k {
			n++
		}
	}
	return n
}

func TestParseChainRejects(t *testing.T) {
	cases := map[string]struct {
		in      string
		wantSub string
	}{
		"not an array":      {`{"op":"jitter"}`, "parsing chain"},
		"trailing content":  {`[] []`, "trailing content"},
		"no op":             {`[{}]`, `no "op" field`},
		"unknown op":        {`[{"op":"resample"}]`, `unknown op "resample"`},
		"unknown field":     {`[{"op":"time_warp","factor":2,"bogus":1}]`, "bogus"},
		"warp factor low":   {`[{"op":"time_warp","factor":0.001}]`, "out of"},
		"warp factor high":  {`[{"op":"time_warp","factor":1000}]`, "out of"},
		"scale empty":       {`[{"op":"demand_scale"}]`, "needs a factor"},
		"scale both":        {`[{"op":"demand_scale","factor":2,"iaas":1.5}]`, "mutually exclusive"},
		"scale huge":        {`[{"op":"demand_scale","factor":1e9}]`, "out of"},
		"scale negative":    {`[{"op":"demand_scale","factor":-2}]`, "out of"},
		"filter kind":       {`[{"op":"endpoint_filter","kind":"gpu"}]`, `unknown kind "gpu"`},
		"filter both":       {`[{"op":"endpoint_filter","keep":[0],"drop":[1]}]`, "mutually exclusive"},
		"filter dup id":     {`[{"op":"endpoint_filter","keep":[1,1]}]`, "listed twice"},
		"filter neg id":     {`[{"op":"endpoint_filter","drop":[-1]}]`, "negative"},
		"jitter no sigma":   {`[{"op":"jitter"}]`, "sigma"},
		"jitter bad dur":    {`[{"op":"jitter","sigma":"fast"}]`, "invalid duration"},
		"jitter num sigma":  {`[{"op":"jitter","sigma":90}]`, "duration must be a string"},
		"jitter huge sigma": {`[{"op":"jitter","sigma":"8760h"}]`, "out of"},
		"splice no trace":   {`[{"op":"splice"}]`, "needs a trace path"},
		"splice neg offset": {`[{"op":"splice","trace":"t.csv","offset":"-1h"}]`, "out of"},
		"over step cap":     {`[` + strings.Repeat(`{"op":"time_warp","factor":1},`, 32) + `{"op":"time_warp","factor":1}]`, "32-step limit"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
			if !strings.Contains(err.Error(), "transform:") {
				t.Errorf("error %q is not wrapped with the transform: prefix", err)
			}
		})
	}
}

// TestChainCanonicalJSON pins the canonical encoding: parse → marshal is
// stable, and marshal → parse reproduces the chain.
func TestChainCanonicalJSON(t *testing.T) {
	in := `[
	  {"op": "time_warp", "factor": 0.5},
	  {"op": "demand_scale", "iaas": 1.5, "saas": 2, "seed": 9},
	  {"op": "endpoint_filter", "keep": [0, 2]},
	  {"op": "jitter", "sigma": "90s", "seed": 7},
	  {"op": "splice", "trace": "other.csv", "offset": "24h"}
	]`
	c, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	canon := c.String()
	want := `[{"op":"time_warp","factor":0.5},` +
		`{"op":"demand_scale","iaas":1.5,"saas":2,"seed":9},` +
		`{"op":"endpoint_filter","keep":[0,2]},` +
		`{"op":"jitter","sigma":"1m30s","seed":7},` +
		`{"op":"splice","trace":"other.csv","offset":"24h0m0s"}]`
	if canon != want {
		t.Errorf("canonical form:\ngot  %s\nwant %s", canon, want)
	}
	again, err := Parse([]byte(canon))
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if again.String() != canon {
		t.Error("canonical encoding is not a fixed point")
	}
	if again[:3].String() == canon {
		t.Error("prefix chain encodes like the whole chain")
	}
}

func TestChainCloneIsDeep(t *testing.T) {
	c, err := Parse([]byte(`[{"op":"demand_scale","factor":2},{"op":"endpoint_filter","keep":[1]}]`))
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	cl[0].(*DemandScale).Factor = 3
	cl[1].(*EndpointFilter).Keep[0] = 0
	if c[0].(*DemandScale).Factor != 2 || c[1].(*EndpointFilter).Keep[0] != 1 {
		t.Error("Clone shares state with the original chain")
	}
	if c.String() == cl.String() {
		t.Error("mutated clone encodes like the original")
	}
}

func TestTimeWarp(t *testing.T) {
	w := genWorkload(t, 0.5, 3)
	warped, err := Chain{&TimeWarp{Factor: 0.5}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warped.Config.Duration, w.Config.Duration/2; got != want {
		t.Errorf("duration %v, want %v", got, want)
	}
	for i := range w.VMs {
		// Round-to-nearest of odd nanosecond counts may land ±0.5ns off the
		// exact half.
		if d := warped.VMs[i].Arrival*2 - w.VMs[i].Arrival; d < -1 || d > 1 {
			t.Fatalf("VM %d arrival %v not halved from %v", i, warped.VMs[i].Arrival, w.VMs[i].Arrival)
		}
	}
	// The load timeline compresses with the window: the warped pattern at t
	// equals the original at 2t.
	vm := warped.VMs[0]
	orig := w.VMs[0]
	for _, at := range []time.Duration{0, time.Hour, 2*time.Hour + 11*time.Minute} {
		if got, want := vm.Load.At(at), orig.Load.At(2*at); got != want {
			t.Errorf("warped load at %v = %v, original at %v = %v", at, got, 2*at, want)
		}
	}
	ep, epo := warped.Endpoints[0], w.Endpoints[0]
	if got, want := ep.Rate.At(time.Hour), epo.Rate.At(2*time.Hour); got != want {
		t.Errorf("warped endpoint rate %v, want %v", got, want)
	}

	// Double warp composes multiplicatively.
	twice, err := Chain{&TimeWarp{Factor: 0.5}, &TimeWarp{Factor: 4}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := twice.VMs[0].Load.TimeScale, 2.0; got != want {
		t.Errorf("composed TimeScale %v, want %v", got, want)
	}
}

func TestDemandScale(t *testing.T) {
	w := genWorkload(t, 0.5, 5)
	iaasBefore := countKind(w, trace.IaaS)

	scaled, err := Chain{&DemandScale{Factor: 2, Seed: 11}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	// SaaS demand scales exactly; serving capacity (NumVMs) does not.
	for i := range w.Endpoints {
		if got, want := scaled.Endpoints[i].PeakRPSPerVM, w.Endpoints[i].PeakRPSPerVM*2; got != want {
			t.Errorf("endpoint %d PeakRPSPerVM %v, want %v", i, got, want)
		}
		if scaled.Endpoints[i].NumVMs != w.Endpoints[i].NumVMs {
			t.Errorf("endpoint %d NumVMs changed", i)
		}
	}
	// Integer factor: IaaS population exactly doubles, SaaS unchanged.
	if got, want := countKind(scaled, trace.IaaS), 2*iaasBefore; got != want {
		t.Errorf("IaaS VMs %d, want exactly %d", got, want)
	}
	if got, want := countKind(scaled, trace.SaaS), countKind(w, trace.SaaS); got != want {
		t.Errorf("SaaS VMs %d, want unchanged %d", got, want)
	}

	// Fractional thinning lands near the expectation and is deterministic.
	thin, err := Chain{&DemandScale{IaaS: 0.5, Seed: 11}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	got := countKind(thin, trace.IaaS)
	if lo, hi := iaasBefore*3/10, iaasBefore*7/10; got < lo || got > hi {
		t.Errorf("thinned IaaS VMs %d outside [%d, %d] (before: %d)", got, lo, hi, iaasBefore)
	}
	thin2, err := Chain{&DemandScale{IaaS: 0.5, Seed: 11}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(thin, thin2) {
		t.Error("same chain + seed must reproduce the same workload")
	}
	other, err := Chain{&DemandScale{IaaS: 0.5, Seed: 12}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(thin, other) {
		t.Error("different seeds should thin different VMs")
	}
}

func TestEndpointFilter(t *testing.T) {
	w := genWorkload(t, 0.5, 7)

	onlyIaaS, err := Chain{&EndpointFilter{Kind: "iaas"}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(onlyIaaS.Endpoints) != 0 || countKind(onlyIaaS, trace.SaaS) != 0 {
		t.Error("kind=iaas must drop every endpoint and SaaS VM")
	}
	if countKind(onlyIaaS, trace.IaaS) != countKind(w, trace.IaaS) {
		t.Error("kind=iaas must keep every IaaS VM")
	}

	onlySaaS, err := Chain{&EndpointFilter{Kind: "saas"}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if countKind(onlySaaS, trace.IaaS) != 0 || len(onlySaaS.Endpoints) != len(w.Endpoints) {
		t.Error("kind=saas must drop IaaS VMs and keep endpoints")
	}

	drop, err := Chain{&EndpointFilter{Drop: []int{0}}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(drop.Endpoints) != len(w.Endpoints)-1 {
		t.Fatalf("drop [0]: %d endpoints, want %d", len(drop.Endpoints), len(w.Endpoints)-1)
	}
	// Remaining endpoints re-index densely and VM references follow: the old
	// endpoint 1 is now 0, and its demand shape came along.
	if drop.Endpoints[0].Seed != w.Endpoints[1].Seed {
		t.Error("dropped filter did not shift endpoint 1 to slot 0")
	}
	for _, vm := range drop.VMs {
		if vm.Kind == trace.SaaS && (vm.Endpoint < 0 || vm.Endpoint >= len(drop.Endpoints)) {
			t.Fatalf("SaaS VM %d references endpoint %d after filter", vm.ID, vm.Endpoint)
		}
	}
	if err := drop.Validate(); err != nil {
		t.Errorf("filtered workload invalid: %v", err)
	}

	if _, err := (Chain{&EndpointFilter{Keep: []int{99}}}).Apply(w); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("keep out-of-range: got %v", err)
	}
	if _, err := (Chain{&EndpointFilter{Kind: "saas"}}).Apply(onlyIaaS); err == nil || !strings.Contains(err.Error(), "removed every VM") {
		t.Errorf("emptying filter: got %v", err)
	}
}

func TestJitter(t *testing.T) {
	w := genWorkload(t, 0.5, 9)
	j, err := Chain{&Jitter{Sigma: Dur(time.Hour), Seed: 4}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.VMs) != len(w.VMs) {
		t.Fatal("jitter changed the VM population")
	}
	residents := 0
	moved := 0
	for i, vm := range w.VMs {
		if vm.Arrival == 0 {
			residents++
			if j.VMs[i].Arrival != 0 {
				t.Fatal("jitter moved a t=0 resident")
			}
		}
	}
	// Arrivals after the residents may have been reordered; compare the
	// multiset sizes and perturbation bound via a sweep.
	for _, vm := range j.VMs {
		if vm.Arrival != 0 {
			moved++
		}
	}
	if got := len(w.VMs) - residents; moved > got {
		t.Errorf("jitter produced %d positive arrivals from %d", moved, got)
	}
	if err := j.Validate(); err != nil {
		t.Errorf("jittered workload invalid: %v", err)
	}
	j2, err := Chain{&Jitter{Sigma: Dur(time.Hour), Seed: 4}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j, j2) {
		t.Error("same sigma + seed must reproduce the same workload")
	}
	// Arrivals clamp to the recorded window on both sides: a sigma larger
	// than the whole window cannot jitter a VM out of the replay.
	wide, err := Chain{&Jitter{Sigma: Dur(10 * w.Config.Duration), Seed: 8}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range wide.VMs {
		if vm.Arrival < 0 || vm.Arrival > w.Config.Duration {
			t.Fatalf("VM %d jittered to %v, outside [0, %v]", vm.ID, vm.Arrival, w.Config.Duration)
		}
	}
}

func TestSplice(t *testing.T) {
	base := genWorkload(t, 0.5, 13)
	overlay := genWorkload(t, 0.5, 14)

	sp := &Splice{Trace: "overlay.csv", Offset: Dur(2 * time.Hour)}
	sp.SetWorkload(overlay)
	out, err := Chain{sp}.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(out.VMs), len(base.VMs)+len(overlay.VMs); got != want {
		t.Fatalf("spliced VMs %d, want %d", got, want)
	}
	if got, want := len(out.Endpoints), len(base.Endpoints)+len(overlay.Endpoints); got != want {
		t.Fatalf("spliced endpoints %d, want %d", got, want)
	}
	if got, want := out.Config.Duration, base.Config.Duration+2*time.Hour; got != want {
		t.Errorf("spliced window %v, want %v (overlay shifted by 2h)", got, want)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("spliced workload invalid: %v", err)
	}
	// Overlay customers were renumbered past the base trace's.
	maxBase := 0
	for _, vm := range base.VMs {
		if vm.Kind == trace.IaaS && vm.Customer > maxBase {
			maxBase = vm.Customer
		}
	}
	overlayCust := 0
	for _, vm := range out.VMs {
		if vm.Kind == trace.IaaS && vm.Customer > maxBase {
			overlayCust++
		}
	}
	if overlayCust == 0 {
		t.Error("no overlay IaaS customer was renumbered past the base range")
	}

	// Fleet-size mismatch is rejected.
	small, err := trace.Generate(trace.WorkloadConfig{Servers: 30, Duration: time.Hour, Endpoints: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spBad := &Splice{Trace: "overlay.csv"}
	spBad.SetWorkload(small)
	if _, err := (Chain{spBad}).Apply(base); err == nil || !strings.Contains(err.Error(), "same fleet") {
		t.Errorf("fleet mismatch: got %v", err)
	}

	// Unloaded splice fails loudly.
	if _, err := (Chain{&Splice{Trace: "missing.csv"}}).Apply(base); err == nil || !strings.Contains(err.Error(), "not loaded") {
		t.Errorf("unloaded splice: got %v", err)
	}
}

func TestChainLoadResolvesSplice(t *testing.T) {
	overlay := genWorkload(t, 0.5, 21)
	dir := t.TempDir()
	if err := trace.SaveWorkloadCSV(dir+"/overlay.csv", overlay); err != nil {
		t.Fatal(err)
	}
	c, err := Parse([]byte(`[{"op":"splice","trace":"overlay.csv"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(dir); err != nil {
		t.Fatal(err)
	}
	base := genWorkload(t, 0.5, 22)
	out, err := c.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VMs) != len(base.VMs)+len(overlay.VMs) {
		t.Error("loaded splice did not merge the overlay")
	}
	missing, err := Parse([]byte(`[{"op":"splice","trace":"nope.csv"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if err := missing.Load(dir); err == nil {
		t.Error("loading a missing splice trace must error")
	}
}

// TestApplyIsPure proves no step mutates its input.
func TestApplyIsPure(t *testing.T) {
	w := genWorkload(t, 0.5, 17)
	snapshot := &trace.Workload{
		Config:    w.Config,
		VMs:       append([]trace.VMSpec(nil), w.VMs...),
		Endpoints: append([]trace.EndpointSpec(nil), w.Endpoints...),
	}
	overlay := genWorkload(t, 0.5, 18)
	sp := &Splice{Trace: "o.csv", Offset: Dur(time.Hour)}
	sp.SetWorkload(overlay)
	chain := Chain{
		&TimeWarp{Factor: 0.5},
		&DemandScale{Factor: 1.5, Seed: 2},
		&EndpointFilter{Drop: []int{1}},
		&Jitter{Sigma: Dur(30 * time.Minute), Seed: 3},
		sp,
	}
	if _, err := chain.Apply(w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, snapshot) {
		t.Error("chain mutated its input workload")
	}
}

// TestWorkloadCSVRoundTripAfterTransform: a transformed workload is itself a
// pinnable artifact — it survives the CSV round trip exactly (including the
// warped TimeScale columns the v2 format adds).
func TestWorkloadCSVRoundTripAfterTransform(t *testing.T) {
	w := genWorkload(t, 0.5, 19)
	out, err := Chain{&TimeWarp{Factor: 0.5}, &DemandScale{Factor: 2, Seed: 1}}.Apply(w)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteWorkloadCSV(&buf, out); err != nil {
		t.Fatal(err)
	}
	again, err := trace.ReadWorkloadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, out) {
		t.Error("transformed workload changed across the CSV round trip")
	}
}
