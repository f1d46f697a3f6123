package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"github.com/tapas-sim/tapas/internal/layout"
	"github.com/tapas-sim/tapas/internal/llm"
	"github.com/tapas-sim/tapas/internal/trace"
	"github.com/tapas-sim/tapas/internal/trace/transform"
)

// CacheKey is a content hash over the compile-relevant fields of a Scenario
// (or of its layout). Two scenarios with equal keys compile to byte-identical
// artifacts, so a compiled scenario cached under the key can serve both — see
// CompileCache.
type CacheKey [sha256.Size]byte

// String returns the key as lowercase hex.
func (k CacheKey) String() string { return hex.EncodeToString(k[:]) }

// ScenarioKey hashes the compile-relevant fields of a scenario: layout
// config, workload spec (or trace content + transform chain), the
// request-level replay log when present, duration, and oversubscription.
// Runtime-only fields — Tick, Failures, Observer, the climate Region and
// StartOffset, and the policy parameters SLOSched and PowerGov — are
// excluded: they are exactly the fields CompiledScenario.ForScenario adopts
// from a run, and every other field is hashed here (a reflection test,
// TestScenarioFieldsAreKeyedOrAdopted, checks the split). Workload.Servers
// and Workload.Duration are excluded too because Compile fills them from
// the layout and Duration. Replayed traces (and splice overlays) are hashed
// by content via their canonical workload CSV, so the key is stable across
// loads of the same file and across processes.
func ScenarioKey(sc Scenario) (CacheKey, error) {
	return scenarioKey(sc, nil)
}

// scenarioKey is ScenarioKey with an optional fingerprint memo (the
// CompileCache threads its bounded memo through so repeated lookups against
// a shared in-memory trace do not re-serialize it).
func scenarioKey(sc Scenario, memo *fingerprintMemo) (CacheKey, error) {
	h := newKeyHasher("tapas-scenario-key/v3")
	h.hashLayout(sc.Layout)
	h.f64(sc.Oversubscribe)
	if err := h.hashWorkloadSource(sc, memo); err != nil {
		return CacheKey{}, err
	}
	h.dur(sc.Duration)
	return h.sum(), nil
}

// layoutKey hashes what buildLayoutArtifacts consumes: the layout config and
// the oversubscription ratio (extra racks change the generated datacenter).
func layoutKey(lc layout.Config, oversubscribe float64) CacheKey {
	h := newKeyHasher("tapas-layout-key/v1")
	h.hashLayout(lc)
	h.f64(oversubscribe)
	return h.sum()
}

// keyHasher serializes fields into a SHA-256 stream. Every value is written
// fixed-width or length-prefixed, so field boundaries are unambiguous and
// the encoding is canonical.
type keyHasher struct {
	h   hash.Hash
	buf [8]byte
}

func newKeyHasher(domain string) *keyHasher {
	k := &keyHasher{h: sha256.New()}
	k.str(domain)
	return k
}

func (k *keyHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(k.buf[:], v)
	k.h.Write(k.buf[:])
}

func (k *keyHasher) i64(v int64)         { k.u64(uint64(v)) }
func (k *keyHasher) f64(v float64)       { k.u64(floatBits(v)) }
func (k *keyHasher) dur(d time.Duration) { k.i64(int64(d)) }
func (k *keyHasher) bytes(tag byte, b []byte) {
	k.h.Write([]byte{tag})
	k.u64(uint64(len(b)))
	k.h.Write(b)
}
func (k *keyHasher) str(s string) { k.bytes('s', []byte(s)) }

func (k *keyHasher) sum() CacheKey {
	var key CacheKey
	k.h.Sum(key[:0])
	return key
}

func (k *keyHasher) hashLayout(lc layout.Config) {
	k.str(lc.Name)
	k.i64(int64(lc.Aisles))
	k.i64(int64(lc.RacksPerRow))
	k.i64(int64(lc.ServersPerRack))
	k.i64(int64(lc.GPU))
	k.u64(lc.Seed)
	k.i64(int64(lc.MixGPU))
	k.f64(lc.MixFraction)
	k.f64(lc.FleetScale)
}

// hashWorkloadSource hashes where the workload comes from: the synthetic
// generation config (Servers and Duration excluded — Compile fills them from
// the layout and the scenario's Duration), or the replayed trace content plus the canonical transform chain
// (splice overlays hashed by content too — the chain's canonical JSON names
// only their path). A request-level replay log (Scenario.Requests) is hashed
// field by field in both branches: it is workload content the engine serves,
// so scenarios differing only in their log must never share a key.
func (k *keyHasher) hashWorkloadSource(sc Scenario, memo *fingerprintMemo) error {
	defer k.hashRequests(sc.Requests)
	if sc.Trace == nil {
		wc := sc.Workload
		k.str("synthetic")
		k.f64(wc.SaaSFraction)
		k.i64(int64(wc.Endpoints))
		k.u64(wc.Seed)
		k.f64(wc.Occupancy)
		k.f64(wc.DemandScale)
		return nil
	}
	k.str("replay")
	fp, err := memo.fingerprint(sc.Trace)
	if err != nil {
		return err
	}
	k.bytes('t', fp[:])
	k.str(sc.TraceTransforms.String())
	for _, step := range sc.TraceTransforms {
		sp, ok := step.(*transform.Splice)
		if !ok {
			continue
		}
		ov := sp.Workload()
		if ov == nil {
			return fmt.Errorf("sim: cache key: splice trace %q not loaded; load the chain before keying", sp.Trace)
		}
		ofp, err := memo.fingerprint(ov)
		if err != nil {
			return err
		}
		k.bytes('o', ofp[:])
	}
	return nil
}

// hashRequests folds a request-level replay log into the key, one fixed-width
// record per request. Empty logs (binned mode) contribute nothing, keeping
// pre-existing keys stable.
func (k *keyHasher) hashRequests(reqs []llm.Request) {
	if len(reqs) == 0 {
		return
	}
	k.str("requests")
	k.i64(int64(len(reqs)))
	for i := range reqs {
		rq := &reqs[i]
		k.i64(rq.ID)
		k.i64(int64(rq.Customer))
		k.i64(int64(rq.Endpoint))
		k.i64(int64(rq.PromptTokens))
		k.i64(int64(rq.OutputTokens))
		k.dur(rq.Arrival)
	}
}

func floatBits(f float64) uint64 {
	// Normalize the two zero representations so -0 and +0 key identically
	// (they generate identical workloads and layouts).
	if f == 0 {
		return 0
	}
	return math.Float64bits(f)
}

// fingerprint hashes a workload's content via its canonical CSV encoding
// (trace.WriteWorkloadCSV round-trips float64 exactly, so the encoding is a
// stable content address). A nil memo computes directly.
func (m *fingerprintMemo) fingerprint(w *trace.Workload) (CacheKey, error) {
	if m != nil {
		if fp, ok := m.get(w); ok {
			return fp, nil
		}
	}
	h := sha256.New()
	if err := trace.WriteWorkloadCSV(h, w); err != nil {
		return CacheKey{}, fmt.Errorf("sim: fingerprinting trace: %w", err)
	}
	var fp CacheKey
	h.Sum(fp[:0])
	if m != nil {
		m.put(w, fp)
	}
	return fp, nil
}
