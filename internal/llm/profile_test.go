package llm

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/tapas-sim/tapas/internal/layout"
)

func buildTestProfile(t *testing.T) *Profile {
	t.Helper()
	return BuildProfile(layout.Spec(layout.A100), DefaultWorkload())
}

func TestBuildProfileCoversSpace(t *testing.T) {
	p := buildTestProfile(t)
	if len(p.Entries) != len(ConfigSpace(p.Spec)) {
		t.Errorf("profile has %d entries, want %d", len(p.Entries), len(ConfigSpace(p.Spec)))
	}
	// Sorted by goodput descending.
	for i := 1; i < len(p.Entries); i++ {
		if p.Entries[i].Goodput > p.Entries[i-1].Goodput {
			t.Fatal("entries not sorted by goodput descending")
		}
	}
}

// TestDefaultProfileIsBuiltOncePerGeneration pins DefaultProfile: equal in
// every field to a fresh BuildProfile of the generation's spec under the
// default workload, the same pointer on every call, and A100's for a model
// outside the known generations (as layout.Spec falls back).
func TestDefaultProfileIsBuiltOncePerGeneration(t *testing.T) {
	for _, m := range []layout.GPUModel{layout.A100, layout.H100} {
		p := DefaultProfile(m)
		if !reflect.DeepEqual(p, BuildProfile(layout.Spec(m), DefaultWorkload())) {
			t.Errorf("%v: DefaultProfile differs from BuildProfile", m)
		}
		if DefaultProfile(m) != p {
			t.Errorf("%v: DefaultProfile built a second profile", m)
		}
	}
	if DefaultProfile(layout.A100) == DefaultProfile(layout.H100) {
		t.Error("A100 and H100 share a profile")
	}
	if DefaultProfile(layout.GPUModelCount) != DefaultProfile(layout.A100) {
		t.Error("an unknown model did not get A100's profile")
	}
}

func TestProfileEntryLookup(t *testing.T) {
	p := buildTestProfile(t)
	e, ok := p.Entry(DefaultConfig())
	if !ok {
		t.Fatal("default config missing from profile")
	}
	if e.Quality != 1 {
		t.Errorf("default quality = %v, want 1", e.Quality)
	}
	if _, ok := p.Entry(Config{Model: Llama70B, TP: 8, MaxBatch: 63, FreqFrac: 1}); ok {
		t.Error("lookup of nonexistent config must fail")
	}
}

// TestFullQualityIsLlama70BFP16 pins the configurator's two scan lists:
// FullQuality holds exactly the 70B FP16 entries (quality 1 means the
// reference model unquantized), AnyQuality every entry, both in the
// table's goodput order.
func TestFullQualityIsLlama70BFP16(t *testing.T) {
	p := buildTestProfile(t)
	var want []int
	for i, e := range p.Entries {
		if e.Config.Model == Llama70B && e.Config.Quant == FP16 {
			want = append(want, i)
		}
	}
	if len(want) == 0 || len(want) == len(p.Entries) {
		t.Fatalf("%d of %d entries are 70B FP16; the table must hold both kinds", len(want), len(p.Entries))
	}
	if !slices.Equal(p.FullQuality, want) {
		t.Errorf("FullQuality = %v, want the 70B FP16 positions %v", p.FullQuality, want)
	}
	if len(p.AnyQuality) != len(p.Entries) {
		t.Fatalf("AnyQuality has %d positions, want %d", len(p.AnyQuality), len(p.Entries))
	}
	for i, pos := range p.AnyQuality {
		if pos != i {
			t.Fatalf("AnyQuality[%d] = %d, want every position in goodput order", i, pos)
		}
	}
}

// TestCandidatesAreClassFilters pins the lists a configuration search
// visits: for every configuration of both generations' grids, and for
// configurations off the grid, under quality floors 1 and 0.6, Candidates
// must hold exactly the entries that can meet the floor (full quality at
// floor 1) and, restricted to the same class, only those a switch reaches
// without a reload, in goodput order. The grid has 18 reload classes of at
// most 20 entries, and only the 70B FP16 classes hold full-quality entries.
func TestCandidatesAreClassFilters(t *testing.T) {
	for _, m := range []layout.GPUModel{layout.A100, layout.H100} {
		p := BuildProfile(layout.Spec(m), DefaultWorkload())
		curs := append(ConfigSpace(p.Spec),
			Config{Model: Llama70B, Quant: FP16, TP: 3, MaxBatch: 64, FreqFrac: 1},
			Config{Model: ModelSize(3), Quant: FP16, TP: 8, MaxBatch: 64, FreqFrac: 1},
			Config{Model: Llama7B, Quant: Quant(2), TP: 2, MaxBatch: 1, FreqFrac: 1})
		for _, cur := range curs {
			for _, floor := range []float64{1, 0.6} {
				for _, sameClass := range []bool{false, true} {
					var want []int
					for i, e := range p.Entries {
						if (floor < 1 || e.Quality >= 1) && (!sameClass || ReconfigTime(cur, e.Config) == 0) {
							want = append(want, i)
						}
					}
					if got := p.Candidates(cur, floor, sameClass); !slices.Equal(got, want) {
						t.Fatalf("%v: Candidates(%v, floor %v, same class %v) = %v, want %v", m, cur, floor, sameClass, got, want)
					}
				}
			}
		}
		sizes := map[int]int{}
		for _, e := range p.Entries {
			sizes[reloadClass(e.Config)]++
		}
		if len(sizes) != reloadClasses {
			t.Errorf("%v: entries fall in %d reload classes, want %d", m, len(sizes), reloadClasses)
		}
		for k, n := range sizes {
			if k < 0 || k >= reloadClasses || n > 20 {
				t.Errorf("%v: reload class %d holds %d entries, want a class in [0, %d) of at most 20", m, k, n, reloadClasses)
			}
		}
		if got := p.Candidates(Config{Model: Llama13B, Quant: FP16, TP: 8, MaxBatch: 64, FreqFrac: 1}, 1, true); len(got) != 0 {
			t.Errorf("%v: a 13B class lists full-quality entries %v", m, got)
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	p := buildTestProfile(t)
	for _, m := range []ModelSize{Llama70B, Llama13B, Llama7B} {
		frontier := p.ParetoFrontier(m)
		if len(frontier) == 0 {
			t.Fatalf("empty frontier for %v", m)
		}
		// No frontier point may dominate another.
		for i, a := range frontier {
			if a.Config.Model != m {
				t.Fatalf("frontier for %v contains %v", m, a.Config)
			}
			for j, b := range frontier {
				if i == j {
					continue
				}
				if b.Goodput >= a.Goodput && b.PeakGPUPowerFrac <= a.PeakGPUPowerFrac &&
					b.PeakServerPowerW <= a.PeakServerPowerW &&
					(b.Goodput > a.Goodput || b.PeakGPUPowerFrac < a.PeakGPUPowerFrac || b.PeakServerPowerW < a.PeakServerPowerW) {
					t.Fatalf("frontier point %v dominated by %v", a.Config, b.Config)
				}
			}
		}
	}
}

func TestSmallerModelsReachLowerPower(t *testing.T) {
	// Fig. 16: each model's frontier extends to lower power at lower
	// goodput; the 7B frontier must reach lower minimum power than 70B's.
	p := buildTestProfile(t)
	minPower := func(m ModelSize) float64 {
		lo := 1e18
		for _, e := range p.ParetoFrontier(m) {
			if e.PeakServerPowerW < lo {
				lo = e.PeakServerPowerW
			}
		}
		return lo
	}
	if minPower(Llama7B) >= minPower(Llama70B) {
		t.Error("7B frontier should reach lower power than 70B frontier")
	}
	maxGoodput := func(m ModelSize) float64 {
		hi := 0.0
		for _, e := range p.ParetoFrontier(m) {
			if e.Goodput > hi {
				hi = e.Goodput
			}
		}
		return hi
	}
	if maxGoodput(Llama7B) <= maxGoodput(Llama70B) {
		t.Error("7B should reach higher goodput than 70B under the same SLOs")
	}
}

func TestCharacterizeTable1Directions(t *testing.T) {
	// Table 1 direction checks on profile entries.
	spec := layout.Spec(layout.A100)
	w := DefaultWorkload()
	slos := ComputeSLOs(spec, DefaultConfig(), w)
	base := Characterize(spec, DefaultConfig(), w, slos)

	smaller := DefaultConfig()
	smaller.Model = Llama7B
	e := Characterize(spec, smaller, w, slos)
	if !(e.Goodput > base.Goodput && e.AvgServerPowerW < base.AvgServerPowerW && e.Quality < base.Quality) {
		t.Error("model-size row of Table 1 violated (perf↑ power↓ quality↓↓)")
	}

	quant := DefaultConfig()
	quant.Quant = FP8
	e = Characterize(spec, quant, w, slos)
	if !(e.Goodput > base.Goodput && e.AvgServerPowerW < base.AvgServerPowerW && e.Quality < base.Quality) {
		t.Error("quantization row of Table 1 violated")
	}

	tp2 := DefaultConfig()
	tp2.TP = 2
	e = Characterize(spec, tp2, w, slos)
	if !(e.Goodput < base.Goodput && e.PeakGPUPowerFrac > base.PeakGPUPowerFrac && e.PeakServerPowerW < base.PeakServerPowerW) {
		t.Error("parallelism row of Table 1 violated (perf↓ temp↑ power↓)")
	}

	slow := DefaultConfig()
	slow.FreqFrac = 0.5
	e = Characterize(spec, slow, w, slos)
	if !(e.Goodput < base.Goodput && e.PeakGPUPowerFrac < base.PeakGPUPowerFrac && e.Quality == base.Quality) {
		t.Error("frequency row of Table 1 violated (perf↓ temp↓ power↓ quality −)")
	}

	smallBatch := DefaultConfig()
	smallBatch.MaxBatch = 16
	e = Characterize(spec, smallBatch, w, slos)
	if !(e.Goodput < base.Goodput && e.PeakGPUPowerFrac < base.PeakGPUPowerFrac && e.Quality == base.Quality) {
		t.Error("batch row of Table 1 violated")
	}
}

// TestReconfigureFromEntryMatchesNewInstance pins the rates profile entries
// carry: for every entry of the A100 and H100 profiles, an instance
// reconfigured from the entry caches, by float bits, the rates of a new
// instance at that configuration. The instances run a workload and SLOs of
// their own, not the profile's, so the TTFT slack Reconfigure derives is
// checked against them too.
func TestReconfigureFromEntryMatchesNewInstance(t *testing.T) {
	rates := func(in *Instance) map[string]float64 {
		return map[string]float64{
			"decodeW": in.decodeW, "prefillRate": in.prefillRate, "decodeRate": in.decodeRate,
			"prefillFrac": in.prefillFrac, "decodeFrac": in.decodeFrac, "gpuIdleFrac": in.gpuIdleFrac,
			"slackFull": in.slackFull, "fullLoadW": in.fullLoadW,
		}
	}
	own := Workload{AvgPromptTokens: 700, AvgOutputTokens: 90}
	for _, m := range []layout.GPUModel{layout.A100, layout.H100} {
		spec := layout.Spec(m)
		p := BuildProfile(spec, DefaultWorkload())
		slos := ComputeSLOs(spec, Config{Model: Llama13B, Quant: FP16, TP: 4, MaxBatch: 16, FreqFrac: 1}, own)
		in := NewInstance(spec, DefaultConfig(), own, slos)
		for i := range p.Entries {
			e := &p.Entries[i]
			in.Reconfigure(e)
			fresh := NewInstance(spec, e.Config, own, slos)
			if in.Config != e.Config {
				t.Fatalf("%v: reconfigured to %v", e.Config, in.Config)
			}
			got, want := rates(in), rates(fresh)
			for name, w := range want {
				if g := got[name]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v on %v: %s %v after Reconfigure, %v from NewInstance", e.Config, m, name, g, w)
				}
			}
		}
	}
}
