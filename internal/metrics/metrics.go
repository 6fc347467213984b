// Package metrics is the pipeline's observability substrate: a
// stdlib-only, allocation-conscious registry of atomic counters, gauges,
// log2-bucketed histograms and wall-clock timers, with point-in-time
// snapshots, snapshot diffing, and deterministic JSON/text encoders.
//
// The central design constraint is that instrumentation must cost nothing
// when nobody is looking. Every instrument is nil-safe: a nil *Counter,
// *Gauge, *Histogram or *Timer accepts every method call as a no-op, and a
// nil *Registry (the Sink type) hands out nil instruments. Hot paths
// therefore hold instrument pointers unconditionally — the disabled path is
// a single predictable nil check, no interface dispatch, no allocation, no
// branch on a config struct. DESIGN.md documents this nil-sink pattern; the
// golden guard test in internal/experiments proves the enabled path does
// not perturb simulation results either.
//
// Instruments are named hierarchically with dot-separated lowercase paths
// ("trace.replay.refs", "trace.replay_ns"). Durations are recorded as
// nanosecond histograms under a "_ns" suffix by convention.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Sink is the nil-safe instrumentation handle the pipeline components
// accept: a nil Sink is valid and hands out nil (no-op) instruments, so the
// uninstrumented path stays free of overhead. A live Sink is obtained from
// New and is safe for concurrent use.
type Sink = *Registry

// Registry owns a flat namespace of instruments. Instrument lookup is
// mutex-guarded and idempotent — asking for an existing name returns the
// same instrument — so callers resolve instruments once, up front, and hot
// paths touch only the returned pointers.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// Timer returns a wall-clock timer recording into the named nanosecond
// histogram (the name should carry a "_ns" suffix by convention). A nil
// registry returns a nil (no-op) timer.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name)}
}

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops returning zero).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. All methods are safe on a nil
// receiver (no-ops returning zero).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v exceeds the current value, making the
// gauge a running maximum (used for peak-RSS / peak-heap tracking).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (zero on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
