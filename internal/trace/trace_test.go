package trace

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"
)

func TestOutsideTempDeterministic(t *testing.T) {
	a := NewOutsideTemp(RegionHot, 24*time.Hour, 10*time.Minute, 1)
	b := NewOutsideTemp(RegionHot, 24*time.Hour, 10*time.Minute, 1)
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Fatal("outside temperature not deterministic")
		}
	}
}

func TestOutsideTempDiurnalShape(t *testing.T) {
	o := NewOutsideTemp(RegionHot, 7*24*time.Hour, 10*time.Minute, 2)
	// Afternoon should be warmer than pre-dawn on average.
	var afternoon, dawn float64
	days := 7
	for d := 0; d < days; d++ {
		afternoon += o.At(time.Duration(d)*24*time.Hour + 15*time.Hour)
		dawn += o.At(time.Duration(d)*24*time.Hour + 5*time.Hour)
	}
	if afternoon <= dawn {
		t.Errorf("afternoon %v not warmer than dawn %v", afternoon/7, dawn/7)
	}
}

func TestOutsideTempRegionOrdering(t *testing.T) {
	hot := NewOutsideTemp(RegionHot, 48*time.Hour, 10*time.Minute, 3)
	cool := NewOutsideTemp(RegionCool, 48*time.Hour, 10*time.Minute, 3)
	var hSum, cSum float64
	for i := 0; i < 48; i++ {
		hSum += hot.At(time.Duration(i) * time.Hour)
		cSum += cool.At(time.Duration(i) * time.Hour)
	}
	if hSum <= cSum {
		t.Error("hot region should average warmer than cool region")
	}
}

func TestOutsideTempClamping(t *testing.T) {
	o := NewOutsideTemp(RegionTemperate, time.Hour, 10*time.Minute, 4)
	if got := o.At(-time.Hour); got != o.Series[0] {
		t.Error("negative time must clamp to start")
	}
	if got := o.At(100 * time.Hour); got != o.Series[len(o.Series)-1] {
		t.Error("beyond-end time must clamp to end")
	}
}

func TestLoadPatternRange(t *testing.T) {
	p := LoadPattern{Base: 0.3, DiurnalAmp: 0.6, NoiseAmp: 0.1, Seed: 5}
	for h := 0; h < 24*14; h++ {
		v := p.At(time.Duration(h) * time.Hour)
		if v < 0 || v > 1 {
			t.Fatalf("load %v out of [0,1] at hour %d", v, h)
		}
	}
}

func TestLoadPatternDeterministic(t *testing.T) {
	p := LoadPattern{Base: 0.3, DiurnalAmp: 0.5, NoiseAmp: 0.08, Seed: 6}
	for h := 0; h < 100; h++ {
		at := time.Duration(h) * 37 * time.Minute
		if p.At(at) != p.At(at) {
			t.Fatal("load pattern not deterministic")
		}
	}
}

func TestLoadPatternWeeklyPredictability(t *testing.T) {
	// Same hour, one week apart: the diurnal+weekly structure should make
	// values close (that is what power templates exploit, Fig. 14).
	p := LoadPattern{Base: 0.3, DiurnalAmp: 0.5, NoiseAmp: 0.05, Seed: 7}
	var diff, n float64
	for h := 0; h < 7*24; h++ {
		a := p.At(time.Duration(h) * time.Hour)
		b := p.At(time.Duration(h+7*24) * time.Hour)
		diff += math.Abs(a - b)
		n++
	}
	if avg := diff / n; avg > 0.12 {
		t.Errorf("week-over-week mean difference = %v, want < 0.12", avg)
	}
}

func TestLoadPatternWeekendDip(t *testing.T) {
	p := LoadPattern{Base: 0.4, DiurnalAmp: 0.4, WeekendDip: 0.3, Seed: 8}
	weekday := p.At(2*24*time.Hour + 14*time.Hour) // Wednesday
	weekend := p.At(5*24*time.Hour + 14*time.Hour) // Saturday
	if weekend >= weekday {
		t.Errorf("weekend load %v not below weekday %v", weekend, weekday)
	}
}

func TestGenerateWorkloadShape(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Servers: 1000, SaaSFraction: 0.5, Duration: 7 * 24 * time.Hour,
		Endpoints: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Endpoints) != 10 {
		t.Fatalf("endpoints = %d, want 10", len(w.Endpoints))
	}
	var iaas, saas int
	for _, vm := range w.VMs {
		switch vm.Kind {
		case IaaS:
			iaas++
			if vm.Endpoint != -1 {
				t.Fatal("IaaS VM has endpoint")
			}
		case SaaS:
			saas++
			if vm.Endpoint < 0 || vm.Endpoint >= len(w.Endpoints) {
				t.Fatalf("SaaS VM endpoint %d out of range", vm.Endpoint)
			}
		}
	}
	ratio := float64(saas) / float64(saas+iaas)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("SaaS fraction = %v, want ≈ 0.5", ratio)
	}
	// Initial population near target occupancy.
	initial := 0
	for _, vm := range w.VMs {
		if vm.Arrival == 0 {
			initial++
		}
	}
	if initial < 800 || initial > 1000 {
		t.Errorf("initial population = %d, want ≈ 920", initial)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(WorkloadConfig{Servers: 0}); err == nil {
		t.Error("expected error for zero servers")
	}
	if _, err := Generate(WorkloadConfig{Servers: 10, SaaSFraction: 1.5}); err == nil {
		t.Error("expected error for SaaS fraction > 1")
	}
	// A negative demand scale would give every endpoint a negative request
	// rate, so no SaaS demand would arrive.
	if _, err := Generate(WorkloadConfig{Servers: 10, SaaSFraction: 0.5, DemandScale: -1}); err == nil || !strings.Contains(err.Error(), "negative demand_scale") {
		t.Errorf("demand scale -1: err = %v, want a negative demand_scale error", err)
	}
}

func TestLifetimeDistributionMatchesFig12a(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Servers: 4000, SaaSFraction: 0.5, Duration: 7 * 24 * time.Hour, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	over2w := 0
	for _, vm := range w.VMs {
		if vm.Lifetime > 14*24*time.Hour {
			over2w++
		}
	}
	frac := float64(over2w) / float64(len(w.VMs))
	// Fig. 12a: over 60% of VMs run for more than two weeks.
	if frac < 0.55 || frac > 0.75 {
		t.Errorf("fraction living > 2 weeks = %v, want ≈ 0.6", frac)
	}
}

func TestEndpointSizesSpanPaperRange(t *testing.T) {
	w, err := Generate(WorkloadConfig{
		Servers: 1000, SaaSFraction: 0.5, Duration: 24 * time.Hour,
		Endpoints: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	minN, maxN := 1<<30, 0
	total := 0
	for _, e := range w.Endpoints {
		if e.NumVMs < minN {
			minN = e.NumVMs
		}
		if e.NumVMs > maxN {
			maxN = e.NumVMs
		}
		total += e.NumVMs
	}
	// §5.1: endpoints have between 23 and 100 VMs; require the right order
	// of magnitude and a skewed spread.
	if maxN < 60 || maxN > 160 {
		t.Errorf("largest endpoint = %d VMs, want ≈ 100", maxN)
	}
	if minN > 40 {
		t.Errorf("smallest endpoint = %d VMs, want small tail", minN)
	}
	if maxN <= 2*minN {
		t.Error("endpoint sizes should be skewed (Fig. 12b)")
	}
}

func TestVMActiveWindow(t *testing.T) {
	vm := VMSpec{Arrival: time.Hour, Lifetime: 2 * time.Hour}
	if vm.Active(0) {
		t.Error("not active before arrival")
	}
	if !vm.Active(90 * time.Minute) {
		t.Error("active during lifetime")
	}
	if vm.Active(4 * time.Hour) {
		t.Error("not active after expiry")
	}
}

func TestEndpointDemandTokens(t *testing.T) {
	w, _ := Generate(WorkloadConfig{Servers: 200, SaaSFraction: 0.5, Duration: 24 * time.Hour, Seed: 10})
	e := w.Endpoints[0]
	p, o := e.DemandTokens(12*time.Hour, time.Minute)
	if p <= 0 || o <= 0 {
		t.Fatal("midday demand must be positive")
	}
	if o >= p {
		t.Error("output tokens should be below prompt tokens for the default workload")
	}
}

func TestEndpointRequestsStream(t *testing.T) {
	w, _ := Generate(WorkloadConfig{Servers: 200, SaaSFraction: 0.5, Duration: 24 * time.Hour, Seed: 11})
	e := w.Endpoints[0]
	reqs := e.Requests(0, 10*time.Minute, 1)
	if len(reqs) == 0 {
		t.Fatal("no requests generated")
	}
	prev := time.Duration(-1)
	customers := map[int]int{}
	for _, r := range reqs {
		if r.Arrival < prev {
			t.Fatal("requests not time-ordered")
		}
		prev = r.Arrival
		if r.PromptTokens < 16 || r.PromptTokens > 8192 {
			t.Fatalf("prompt tokens %d out of range", r.PromptTokens)
		}
		if r.OutputTokens < 8 || r.OutputTokens > 2048 {
			t.Fatalf("output tokens %d out of range", r.OutputTokens)
		}
		customers[r.Customer]++
	}
	// Zipf skew: the most frequent customer should dominate the median one.
	maxC := 0
	for _, n := range customers {
		if n > maxC {
			maxC = n
		}
	}
	if maxC < 3 {
		t.Error("expected repeat customers from Zipf skew")
	}
	// Determinism.
	again := e.Requests(0, 10*time.Minute, 1)
	if len(again) != len(reqs) {
		t.Fatal("request stream not deterministic")
	}
}

// TestZipfSampleSkew pins the skew of the customer IDs that
// EndpointSpec.Requests and the Azure import draw: every ID is in range, and
// the first decile of customers receives well over 10% of the samples.
func TestZipfSampleSkew(t *testing.T) {
	const customers = 5000
	rng := rand.New(rand.NewPCG(12, 0))
	low := 0
	for i := 0; i < 200; i++ {
		id := zipfSample(rng, customers)
		if id < 0 || id >= customers {
			t.Fatalf("customer %d out of range", id)
		}
		if id < customers/10 {
			low++
		}
	}
	if low < 60 {
		t.Errorf("only %d/200 samples in the first decile, want Zipf skew", low)
	}
	if id := zipfSample(rng, 1); id != 0 {
		t.Errorf("one customer: sampled %d, want 0", id)
	}
}

func TestVMKindString(t *testing.T) {
	if IaaS.String() != "IaaS" || SaaS.String() != "SaaS" {
		t.Error("VMKind String() wrong")
	}
}
