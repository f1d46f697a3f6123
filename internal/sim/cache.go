package sim

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/tapas-sim/tapas/internal/trace"
)

// CompileCache is a two-level, content-addressed, size-bounded cache of
// compiled scenarios, safe for concurrent use. It is the one path from a
// scenario to a compilation: Compile goes through a private one, and
// campaigns compile every grid point through a shared one, which is what
// deduplicates their points.
//
// Level 1 keys whole *CompiledScenario values by ScenarioKey — a canonical
// hash of the compile-relevant Scenario fields — so identical grid points
// within a campaign, across sweeps, reruns, and concurrent campaigns compile
// once. A hit comes through CompiledScenario.ForScenario, adopting the
// caller's runtime-only fields (Tick, Failures, Observer, the climate Region
// and StartOffset, and the policy parameters SLOSched and PowerGov), which
// is exactly the set ScenarioKey leaves out; reports from a cache hit are
// byte-identical to a cold compile.
//
// Level 2 memoizes the layout artifacts Compile builds — the generated
// datacenter plus every table derived from it — under their own content
// key, so the points of a workload sweep share one datacenter even though
// every point's level-1 key differs, and a caller that fits offline
// profiles per distinct datacenter fits them once.
//
// Each level is an LRU bounded by entry count. Concurrent compiles of the
// same level-1 key are deduplicated (the losers wait for the winner's
// result and count as neither hits nor misses, so level-1 misses equal cold
// compiles); concurrent compiles of different scenarios that share a layout
// may build it redundantly, which wastes work but never changes results —
// every build of the same key is byte-identical.
type CompileCache struct {
	scenarios *lruCache[*CompiledScenario]
	layouts   *lruCache[*layoutArtifacts]
	fp        *fingerprintMemo
	compiles  atomic.Uint64

	mu     sync.Mutex
	flight map[CacheKey]*flightCall
}

// DefaultCacheEntries is the default level-1 bound used by callers that take
// a cache size of 0.
const DefaultCacheEntries = 64

// NewCompileCache returns a cache bounded to maxEntries compiled scenarios
// (level 1); the layout level is bounded to the same count.
// maxEntries <= 0 selects DefaultCacheEntries.
func NewCompileCache(maxEntries int) *CompileCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	return &CompileCache{
		scenarios: newLRUCache[*CompiledScenario](maxEntries),
		layouts:   newLRUCache[*layoutArtifacts](maxEntries),
		fp:        newFingerprintMemo(fingerprintMemoEntries),
		flight:    make(map[CacheKey]*flightCall),
	}
}

// Compile returns the compiled scenario for sc, from cache when its content
// key is present, waiting for a compile of the key already in flight, and
// compiling (then caching) it otherwise. The returned value adopts sc's
// runtime-only fields and is safe for any number of concurrent Run calls. A
// start offset the weather window cannot cover and an oversubscription ratio
// no layout can be built with are rejected before the lookup.
//
// Traces attached to sc (Scenario.Trace, splice overlays) must not be
// mutated after first use — the read-only contract every compilation
// imposes — because their content fingerprints are memoized by pointer.
func (c *CompileCache) Compile(sc Scenario) (*CompiledScenario, error) {
	if err := checkWindow(sc); err != nil {
		return nil, err
	}
	if err := checkOversubscribe(sc); err != nil {
		return nil, err
	}
	key, err := scenarioKey(sc, c.fp)
	if err != nil {
		return nil, err
	}
	// Deduplicate concurrent compiles of the same key: the first caller
	// compiles, later ones wait and adopt its result. A waiter counts as
	// neither a hit nor a miss, so misses equal cold compiles. The lookups
	// share the flight lock because a compile is cached before its flight
	// ends, so a caller missing both has no compile to wait for.
	c.mu.Lock()
	if call, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, call.err
		}
		return call.cs.ForScenario(sc), nil
	}
	if cs, ok := c.scenarios.get(key); ok {
		c.mu.Unlock()
		return cs.ForScenario(sc), nil
	}
	call := &flightCall{done: make(chan struct{})}
	c.flight[key] = call
	c.mu.Unlock()

	call.cs, call.err = c.compileCold(sc, key)
	if call.err == nil {
		c.scenarios.add(key, call.cs)
	}
	c.mu.Lock()
	delete(c.flight, key)
	c.mu.Unlock()
	close(call.done)
	if call.err != nil {
		return nil, call.err
	}
	return call.cs, nil
}

// Compiles returns the number of cold compiles the cache has performed —
// the work every other Compile call skipped.
func (c *CompileCache) Compiles() uint64 { return c.compiles.Load() }

// compileCold compiles a scenario under its key, on the cached layout
// artifacts when a previous compile built the same layout.
func (c *CompileCache) compileCold(sc Scenario, key CacheKey) (*CompiledScenario, error) {
	c.compiles.Add(1)
	lk := layoutKey(sc.Layout, sc.Oversubscribe)
	la, ok := c.layouts.get(lk)
	if !ok {
		var err error
		la, err = buildLayoutArtifacts(sc.Layout, sc.Oversubscribe)
		if err != nil {
			return nil, err
		}
		c.layouts.add(lk, la)
	}
	return compileOn(sc, key, la)
}

// Stats returns a consistent-enough snapshot of per-level counters (each
// level is snapshotted atomically; levels are read in sequence).
func (c *CompileCache) Stats() CacheStats {
	return CacheStats{
		Compiles:  c.compiles.Load(),
		Scenarios: c.scenarios.stats(),
		Layouts:   c.layouts.stats(),
	}
}

// CacheStats is a snapshot of CompileCache counters, one LevelStats per
// cache level plus the total number of cold compiles performed.
type CacheStats struct {
	Compiles  uint64     `json:"compiles"`
	Scenarios LevelStats `json:"scenarios"`
	Layouts   LevelStats `json:"layouts"`
}

// LevelStats counts one cache level's traffic.
type LevelStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

type flightCall struct {
	done chan struct{}
	cs   *CompiledScenario
	err  error
}

// lruCache is a mutex-guarded LRU keyed by CacheKey and bounded by entry
// count. Values are shared read-only artifacts, so eviction just drops the
// reference.
type lruCache[V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	items     map[CacheKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry[V any] struct {
	key CacheKey
	val V
}

func newLRUCache[V any](max int) *lruCache[V] {
	return &lruCache[V]{max: max, ll: list.New(), items: make(map[CacheKey]*list.Element)}
}

func (c *lruCache[V]) get(k CacheKey) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

func (c *lruCache[V]) add(k CacheKey, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		// A concurrent compile of the same key finished first; keep the
		// incumbent (values for one key are interchangeable) and refresh
		// its recency.
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry[V]{key: k, val: v})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		ent := el.Value.(*lruEntry[V])
		c.ll.Remove(el)
		delete(c.items, ent.key)
		c.evictions++
	}
}

func (c *lruCache[V]) stats() LevelStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LevelStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}

// keysMRU returns the cached keys from most to least recently used (tests).
func (c *lruCache[V]) keysMRU() []CacheKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CacheKey, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).key)
	}
	return out
}

// fingerprintMemo memoizes workload content fingerprints by pointer, so
// repeated key computations against the same in-memory trace do not
// re-serialize it. Bounded: the map is dropped wholesale when full (the
// memo is an optimization; correctness never depends on it).
type fingerprintMemo struct {
	mu  sync.Mutex
	max int
	fps map[*trace.Workload]CacheKey
}

// fingerprintMemoEntries bounds a CompileCache's fingerprint memo by what its
// hits need: the points of one campaign share its trace pointer and any
// splice overlays, while a spec loads its traces afresh for each campaign,
// so a daemon submission's pointers never recur. The memo keeps every trace
// it keys alive, and a larger bound would only keep dead ones.
const fingerprintMemoEntries = 8

func newFingerprintMemo(max int) *fingerprintMemo {
	return &fingerprintMemo{max: max, fps: make(map[*trace.Workload]CacheKey)}
}

func (m *fingerprintMemo) get(w *trace.Workload) (CacheKey, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fp, ok := m.fps[w]
	return fp, ok
}

func (m *fingerprintMemo) put(w *trace.Workload, fp CacheKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.fps) >= m.max {
		clear(m.fps)
	}
	m.fps[w] = fp
}
