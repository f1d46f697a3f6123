package llm

import (
	"sort"
	"sync"

	"github.com/tapas-sim/tapas/internal/layout"
)

// ProfileEntry is the offline-profiled characterization of one configuration
// (§4.5: when the provider onboards a new LLM, TAPAS profiles the impact of
// each configuration parameter on that hardware).
type ProfileEntry struct {
	Config Config
	// Goodput is sustainable tokens/s under the endpoint SLOs.
	Goodput float64
	// PeakGPUPowerFrac is the hottest per-GPU power fraction across phases;
	// combined with the thermal model it bounds the hottest GPU temperature.
	PeakGPUPowerFrac float64
	// PeakServerPowerW is the server power at the hungriest phase.
	PeakServerPowerW float64
	// AvgServerPowerW weights phases by their time share for the workload.
	AvgServerPowerW float64
	// Quality is the relative answer quality (70B FP16 = 1).
	Quality float64

	// The rates an instance caches at this configuration, the values
	// refreshRates derives from the profile's spec: Reconfigure copies them
	// instead of deriving them again.
	decodeW     float64 // decodeWeightSecs(spec.Model, Config)
	prefillRate float64 // PrefillRate(spec, Config)
	decodeRate  float64 // tokenRate(decodeW, Config.MaxBatch)
	prefillFrac float64 // GPUPowerFrac(spec, Config, Prefill)
	decodeFrac  float64 // GPUPowerFrac(spec, Config, Decode)
}

// Profile is the full offline profile of an LLM on a hardware generation.
type Profile struct {
	Spec    layout.GPUSpec
	Work    Workload
	SLOs    SLOs
	Entries []ProfileEntry

	// index maps a configuration to its position in Entries. Entry is called
	// per instance per tick by the router, so the lookup must not scan (and
	// copy) the whole entry table. Every Profile comes from BuildProfile,
	// which fills index and the lists below in one pass over Entries.
	index map[Config]int

	// FullQuality lists the positions in Entries (preserving the goodput
	// ordering) whose Quality is at least 1 — the only entries that can pass
	// a quality floor of 1, which is what the Instance Configurator requires
	// outside emergencies. Scanning just these skips the reduced-quality
	// majority of the table on the common path. AnyQuality lists every
	// position in goodput order, the list scanned under a lower floor.
	FullQuality []int
	AnyQuality  []int

	// classFull and classAny split FullQuality and AnyQuality by reload
	// class (reloadClass), each keeping goodput order: the lists a search
	// restricted to the current model, quantization and TP visits.
	classFull [reloadClasses][]int
	classAny  [reloadClasses][]int
}

// reloadClasses counts the reload classes of the knob grid: one per
// (model, quantization, TP) triple.
const reloadClasses = 3 * 2 * 3

// reloadClass numbers c's reload class in [0, reloadClasses): configurations
// of one class switch among each other without a reload (ReconfigTime 0).
// It returns -1 when c's model, quantization or TP lies off the knob grid,
// a class no profile entry belongs to.
func reloadClass(c Config) int {
	var tp int
	switch c.TP {
	case 2:
		tp = 0
	case 4:
		tp = 1
	case 8:
		tp = 2
	default:
		return -1
	}
	if c.Model < Llama7B || c.Model > Llama70B || c.Quant < FP16 || c.Quant > FP8 {
		return -1
	}
	return (int(c.Model)*2+int(c.Quant))*3 + tp
}

// Candidates returns the positions in Entries, in goodput order, that a
// search under qualityFloor has to visit: FullQuality when the floor is 1 or
// more (no other entry meets it), AnyQuality below. With sameClass it keeps
// only the entries of cur's reload class, the only ones reachable without a
// reload. The slice is shared by every caller and must not be modified.
func (p *Profile) Candidates(cur Config, qualityFloor float64, sameClass bool) []int {
	full := qualityFloor >= 1
	if !sameClass {
		if full {
			return p.FullQuality
		}
		return p.AnyQuality
	}
	k := reloadClass(cur)
	if k < 0 {
		return nil
	}
	if full {
		return p.classFull[k]
	}
	return p.classAny[k]
}

// defaultProfiles is DefaultProfile's memo, one entry per GPU generation.
var defaultProfiles [layout.GPUModelCount]struct {
	once sync.Once
	p    *Profile
}

// DefaultProfile returns the serving profile of generation m's hardware under
// the default workload, BuildProfile(layout.Spec(m), DefaultWorkload()). It
// is a pure function of the generation, so it is built once per process and
// every layout of a generation reads the same profile; like layout.Spec, a
// model outside the known generations gets A100's. The profile is shared
// read-only and must not be modified.
func DefaultProfile(m layout.GPUModel) *Profile {
	spec := layout.Spec(m)
	d := &defaultProfiles[spec.Model]
	d.once.Do(func() { d.p = BuildProfile(spec, DefaultWorkload()) })
	return d.p
}

// BuildProfile characterizes every valid configuration, computing the data
// behind Figs. 15 and 16.
func BuildProfile(spec layout.GPUSpec, w Workload) *Profile {
	slos := ComputeSLOs(spec, DefaultConfig(), w)
	space := ConfigSpace(spec)
	// Sized exactly: profiles outlive their runs (DefaultProfile keeps one
	// per generation), and append's growth would leave a third of the table
	// unused.
	p := &Profile{Spec: spec, Work: w, SLOs: slos, Entries: make([]ProfileEntry, len(space))}
	for i, c := range space {
		p.Entries[i] = Characterize(spec, c, w, slos)
	}
	// Deterministic ordering: by goodput descending, then by string.
	sort.Slice(p.Entries, func(i, j int) bool {
		if p.Entries[i].Goodput != p.Entries[j].Goodput {
			return p.Entries[i].Goodput > p.Entries[j].Goodput
		}
		return p.Entries[i].Config.String() < p.Entries[j].Config.String()
	})
	p.index = make(map[Config]int, len(p.Entries))
	p.AnyQuality = make([]int, len(p.Entries))
	for i, e := range p.Entries {
		p.index[e.Config] = i
		p.AnyQuality[i] = i
		k := reloadClass(e.Config)
		p.classAny[k] = append(p.classAny[k], i)
		if e.Quality >= 1 {
			p.FullQuality = append(p.FullQuality, i)
			p.classFull[k] = append(p.classFull[k], i)
		}
	}
	return p
}

// Characterize computes the profile entry for a single configuration,
// including the rates an instance on spec's hardware caches at it.
func Characterize(spec layout.GPUSpec, c Config, w Workload, slos SLOs) ProfileEntry {
	prefillFrac := phaseTimeShare(spec, c, w)
	prePower := ServerPowerW(spec, c, Prefill)
	decPower := ServerPowerW(spec, c, Decode)
	preFrac := GPUPowerFrac(spec, c, Prefill)
	decFrac := GPUPowerFrac(spec, c, Decode)
	decodeW := decodeWeightSecs(spec.Model, c)
	e := ProfileEntry{
		Config:           c,
		Goodput:          Goodput(spec, c, w, slos),
		PeakGPUPowerFrac: maxf(preFrac, decFrac),
		PeakServerPowerW: maxf(prePower, decPower),
		AvgServerPowerW:  prefillFrac*prePower + (1-prefillFrac)*decPower,
		Quality:          c.Quality(),
		decodeW:          decodeW,
		prefillRate:      PrefillRate(spec, c),
		decodeRate:       tokenRate(decodeW, c.MaxBatch),
		prefillFrac:      preFrac,
		decodeFrac:       decFrac,
	}
	return e
}

// phaseTimeShare returns the fraction of busy time an instance spends in
// prefill for the workload under config c.
func phaseTimeShare(spec layout.GPUSpec, c Config, w Workload) float64 {
	dPre := w.AvgPromptTokens / PrefillRate(spec, c)
	dDec := w.AvgOutputTokens * DecodeStepTime(spec, c, c.MaxBatch).Seconds() / float64(c.MaxBatch)
	if dPre+dDec == 0 {
		return 0
	}
	return dPre / (dPre + dDec)
}

// Entry returns the profile entry for an exact configuration.
func (p *Profile) Entry(c Config) (ProfileEntry, bool) {
	if i, ok := p.index[c]; ok {
		return p.Entries[i], true
	}
	return ProfileEntry{}, false
}

// ParetoFrontier returns the entries not dominated in (goodput↑, peak GPU
// power frac↓, peak server power↓) within each quality tier — the per-model
// frontiers of Fig. 16.
func (p *Profile) ParetoFrontier(model ModelSize) []ProfileEntry {
	var tier []ProfileEntry
	for _, e := range p.Entries {
		if e.Config.Model == model && e.Goodput > 0 {
			tier = append(tier, e)
		}
	}
	var frontier []ProfileEntry
	for i, e := range tier {
		dominated := false
		for j, o := range tier {
			if i == j {
				continue
			}
			if o.Goodput >= e.Goodput &&
				o.PeakGPUPowerFrac <= e.PeakGPUPowerFrac &&
				o.PeakServerPowerW <= e.PeakServerPowerW &&
				(o.Goodput > e.Goodput || o.PeakGPUPowerFrac < e.PeakGPUPowerFrac || o.PeakServerPowerW < e.PeakServerPowerW) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, e)
		}
	}
	return frontier
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
