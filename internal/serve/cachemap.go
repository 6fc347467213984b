package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/resilience-models/dvf/internal/aspen"
	"github.com/resilience-models/dvf/internal/core"
	"github.com/resilience-models/dvf/internal/metrics"
)

// memoCache is a bounded LRU of finished evaluations keyed by the full
// request identity (kernel/cache/fit/engine or verify equivalents). A
// memo hit answers a repeated what-if question without touching the
// engines at all, which is what lets a campaign re-visit grid cells for
// free. Safe for concurrent use.
type memoCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List               // front = most recent
	items map[string]*list.Element // value: *memoEntry

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	occupancy *metrics.Gauge
}

type memoEntry struct {
	key string
	val any
}

func newMemoCache(capacity int, sink metrics.Sink) *memoCache {
	return &memoCache{
		cap:       capacity,
		order:     list.New(),
		items:     make(map[string]*list.Element),
		hits:      sink.Counter("serve.memo.hits"),
		misses:    sink.Counter("serve.memo.misses"),
		evictions: sink.Counter("serve.memo.evictions"),
		occupancy: sink.Gauge("serve.memo.occupancy"),
	}
}

// get returns the memoized value and whether it was present, refreshing
// recency on a hit.
func (c *memoCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*memoEntry).val, true
}

// getBytes is get keyed by a caller-owned byte slice: the map is
// indexed through a string conversion the compiler elides (no copy, no
// allocation), which keeps a memo probe off the heap entirely — the
// byte key is never retained. hotalloc proves the path allocation-free
// in the nil-recorder configuration.
//
//dvf:hotpath
func (c *memoCache) getBytes(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)] //dvf:allow hotalloc the compiler elides the string conversion in a map index; no copy is made
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*memoEntry).val, true
}

// put stores a value, evicting the least-recently-used entry beyond cap.
func (c *memoCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*memoEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&memoEntry{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*memoEntry).key)
		c.evictions.Inc()
	}
	c.occupancy.Set(int64(c.order.Len()))
}

// len reports the current occupancy.
func (c *memoCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// programCache holds parsed-and-checked extended-Aspen models keyed by
// the SHA-256 of their source text: re-submitting the same model source
// skips the compile stage entirely ("compile-or-hit" in the request
// span pipeline). Bounded LRU, safe for concurrent use.
type programCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	items map[string]*list.Element // value: *programEntry

	hits      *metrics.Counter
	misses    *metrics.Counter
	occupancy *metrics.Gauge
}

type programEntry struct {
	hash  string
	model *aspen.Model
}

func newProgramCache(capacity int, sink metrics.Sink) *programCache {
	return &programCache{
		cap:       capacity,
		order:     list.New(),
		items:     make(map[string]*list.Element),
		hits:      sink.Counter("serve.programs.hits"),
		misses:    sink.Counter("serve.programs.misses"),
		occupancy: sink.Gauge("serve.programs.occupancy"),
	}
}

// hashSource returns the content-hash cache key for a model source.
func hashSource(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// get returns the compiled model for a source hash.
func (c *programCache) get(hash string) (*aspen.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*programEntry).model, true
}

// put stores a compiled model under its source hash.
func (c *programCache) put(hash string, m *aspen.Model) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		el.Value.(*programEntry).model = m
		c.order.MoveToFront(el)
		return
	}
	c.items[hash] = c.order.PushFront(&programEntry{hash: hash, model: m})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*programEntry).hash)
	}
	c.occupancy.Set(int64(c.order.Len()))
}

// len reports the current occupancy.
func (c *programCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup collapses concurrent computations of the same key into one:
// the first caller runs fn, every duplicate arriving before it finishes
// blocks on the same call and shares the result. This is the classic
// singleflight pattern, local so the repository stays dependency-free.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
	dedup *metrics.Counter
}

type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

func newFlightGroup(sink metrics.Sink) *flightGroup {
	return &flightGroup{
		calls: make(map[string]*flightCall),
		dedup: sink.Counter("serve.singleflight.dedup"),
	}
}

// do runs fn once per concurrent key, returning the shared result and
// whether this caller was a duplicate rider.
func (g *flightGroup) do(key string, fn func() (any, error)) (any, error, bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		g.dedup.Inc()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	return c.val, c.err, false
}

// runTable holds each built-in kernel's first successful untraced run.
// Equation 1 takes T and the model inputs from that run, and the run
// depends on neither the cache nor the FIT, so every analyze, sweep and
// batch miss for a kernel shares it and evaluates only the CGPMAC
// estimators or the analytic solve. The table has one entry per
// core.NewKernel code, fixed at construction: it needs no bound and no
// eviction. Safe for concurrent use.
type runTable struct {
	entries map[string]*runEntry // by kernel code; never written after newRunTable
	runs    *metrics.Counter
}

// runEntry is one kernel's slot. mu is held across the run, so
// concurrent first requests wait for one run instead of starting their
// own; a failed run leaves info nil and the next request tries again.
// runs is atomic so /statusz never waits on a run in progress.
type runEntry struct {
	mu   sync.Mutex
	info *core.RunInfo
	runs atomic.Int64 // runs started
}

func newRunTable(sink metrics.Sink) *runTable {
	t := &runTable{
		entries: make(map[string]*runEntry),
		runs:    sink.Counter("serve.kernel_runs"),
	}
	for _, k := range core.Kernels() {
		t.entries[k.Name()] = &runEntry{}
	}
	return t
}

// get returns k's shared run, running k first when no earlier run of it
// succeeded. k must come from core.NewKernel. The returned info is
// shared: callers only read it.
func (t *runTable) get(k core.Kernel) (*core.RunInfo, error) {
	e := t.entries[k.Name()]
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.info == nil {
		e.runs.Add(1)
		t.runs.Inc()
		info, err := k.Run(nil)
		if err != nil {
			return nil, fmt.Errorf("running %s: %w", k.Name(), err)
		}
		e.info = info
	}
	return e.info, nil
}

// counts reports the runs started per kernel code.
func (t *runTable) counts() map[string]int64 {
	out := make(map[string]int64, len(t.entries))
	for code, e := range t.entries {
		out[code] = e.runs.Load()
	}
	return out
}
