// Package tracez is the pipeline's timeline-observability substrate: a
// low-overhead span recorder whose output is Chrome trace-event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Where internal/metrics answers "how many, how long in aggregate",
// tracez answers "when, on which worker, overlapping what" — which figure
// driver dominated wall-clock, how many cells the fan-out kept in flight.
//
// The package follows the same nil-sink discipline as internal/metrics
// (DESIGN.md): a nil *Tracer is valid and hands out nil *Track and
// *Counter handles, and every method on every handle no-ops on a nil
// receiver. Hot paths therefore hold trace handles unconditionally; the
// disabled path is one predictable nil check per event site — no clock
// read, no lock, no allocation — which is what makes it safe to leave
// the instrumentation compiled into the replay hot paths permanently.
//
// Timebase: every event timestamp is monotonic-clock time relative to
// the Tracer's creation instant, so a trace always starts near t=0 and
// two traces of the same workload line up when opened side by side.
// Absolute wall-clock time is deliberately absent from the output: the
// golden-output packages (internal/cache, internal/trace,
// internal/experiments) never read the clock themselves — they call
// into tracez, which owns the clock — so the determinism checker's
// no-wall-clock rule keeps holding for simulation results.
package tracez

import (
	"io"
	"sync"
	"time"
)

// Recorder is the nil-safe tracing handle pipeline components accept,
// mirroring metrics.Sink: a nil Recorder is valid and free of overhead.
type Recorder = *Tracer

// spillBatch is the number of buffered events at which a streaming
// tracer hands the buffer to its flush goroutine, bounding memory on
// long runs. Non-streaming tracers accumulate without bound (they are
// meant for tests and short tool runs).
const spillBatch = 4096

// Tracer records events from any number of goroutines and flushes them
// as a Chrome trace-event JSON array. Obtain one from New (in-memory;
// dump with WriteJSON) or NewStreaming (events spill to an io.Writer on
// a background flush goroutine; finish with Close).
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	events  []event
	nextTID int64

	// Streaming state; nil/zero for in-memory tracers.
	out    chan []event
	done   chan struct{}
	werr   error
	closed bool
}

// event is the internal, pre-encoding form of one trace event.
type event struct {
	ph   byte  // 'X' span, 'C' counter sample, 'M' metadata
	tid  int64 // track; 0 for process-scoped counter samples
	ts   int64 // ns since the tracer's start
	dur  int64 // ns, 'X' only
	name string
	val  int64 // 'C' value
	args []Arg // optional span args ('X'), thread name ('M' reuses name/val)
	meta string
}

// Arg is one integer key/value attached to a span.
type Arg struct {
	Key string
	Val int64
}

// New returns an in-memory tracer: events accumulate until WriteJSON.
func New() *Tracer {
	t := &Tracer{start: time.Now()}
	t.emitProcessMeta()
	return t
}

// NewStreaming returns a tracer that spills encoded events to w from a
// background flush goroutine whenever spillBatch events have buffered,
// bounding memory on arbitrarily long runs. The JSON array is completed
// by Close, which also joins the goroutine and reports the first write
// error.
func NewStreaming(w io.Writer) *Tracer {
	t := &Tracer{
		start: time.Now(),
		out:   make(chan []event, 4),
		done:  make(chan struct{}),
	}
	go t.flushLoop(w)
	t.emitProcessMeta()
	return t
}

// flushLoop is the streaming tracer's flush goroutine: it drains event
// batches from t.out, encodes them and writes them, latching the first
// write error. It exits when Close closes the channel; ranging over the
// channel is its join path.
func (t *Tracer) flushLoop(w io.Writer) {
	defer close(t.done)
	enc := newEncoder(w)
	for batch := range t.out {
		if err := enc.writeEvents(t.start, batch); err != nil && t.werr == nil {
			t.werr = err
		}
	}
	if err := enc.finish(); err != nil && t.werr == nil {
		t.werr = err
	}
}

// emitProcessMeta names the single process all tracks live in.
func (t *Tracer) emitProcessMeta() {
	t.append(event{ph: 'M', name: "process_name", meta: "dvf"})
}

// append records one event, spilling a full buffer to the flush
// goroutine when streaming. The spill send happens under the mutex:
// backpressure from a slow writer then briefly serializes recorders,
// which is preferable to racing Close's channel close.
func (t *Tracer) append(e event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	t.events = append(t.events, e)
	if t.out != nil && len(t.events) >= spillBatch {
		t.out <- t.events
		t.events = nil
	}
}

// now returns the event timestamp: nanoseconds since the tracer's
// creation on the monotonic clock.
func (t *Tracer) now() int64 { return int64(time.Since(t.start)) }

// Track creates a new named track (a Perfetto thread lane). Spans on
// one track must not overlap in time, so give each
// concurrent actor — a shard worker, a figure cell, a pipeline stage —
// its own track. A nil tracer returns a nil (no-op) track.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextTID++
	tid := t.nextTID
	t.mu.Unlock()
	t.append(event{ph: 'M', tid: tid, name: "thread_name", meta: name})
	return &Track{t: t, tid: tid}
}

// Counter creates a named counter track: Sample calls become a stepped
// value-over-time lane in Perfetto (queue depths, backlogs, progress).
// A nil tracer returns a nil (no-op) counter.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return &Counter{t: t, name: name}
}

// WriteJSON dumps an in-memory tracer's events as a complete Chrome
// trace-event JSON array. Call it once recording has quiesced; events
// recorded afterwards are lost from the written trace but harmless.
// On a streaming tracer use Close instead. A nil tracer writes an empty
// valid trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		enc := newEncoder(w)
		return enc.finish()
	}
	t.mu.Lock()
	events := append([]event(nil), t.events...)
	start := t.start
	t.mu.Unlock()
	enc := newEncoder(w)
	if err := enc.writeEvents(start, events); err != nil {
		return err
	}
	return enc.finish()
}

// Close flushes any buffered events, completes the JSON array, joins
// the flush goroutine and returns the first write error. On an
// in-memory or nil tracer Close is a no-op; further events after Close
// are dropped.
func (t *Tracer) Close() error {
	if t == nil || t.out == nil {
		return nil
	}
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		if len(t.events) > 0 {
			t.out <- t.events
			t.events = nil
		}
		close(t.out)
	}
	t.mu.Unlock()
	<-t.done
	return t.werr
}

// Track is one timeline lane. All methods are safe on a nil receiver
// (no-ops) and safe for use from a single goroutine at a time — give
// each concurrent actor its own track, which is also what renders
// legibly.
type Track struct {
	t   *Tracer
	tid int64
}

// Span is an in-flight interval opened by Begin. The zero Span (and any
// span from a nil track) is valid and End/EndArgs on it are no-ops.
// Span is a small value: carrying it through a hot loop costs no
// allocation.
type Span struct {
	tk   *Track
	name string
	t0   int64
}

// Begin opens a span; close it with End or EndArgs. On a nil track the
// returned span is a no-op and the clock is never read.
func (tk *Track) Begin(name string) Span {
	if tk == nil {
		return Span{}
	}
	return Span{tk: tk, name: name, t0: tk.t.now()}
}

// End closes the span, recording one complete ("ph":"X") event.
func (s Span) End() {
	if s.tk == nil {
		return
	}
	now := s.tk.t.now()
	s.tk.t.append(event{ph: 'X', tid: s.tk.tid, ts: s.t0, dur: now - s.t0, name: s.name})
}

// EndArgs is End with integer args attached to the span (batch sizes,
// reference counts); they appear under "args" in the trace viewer.
// The variadic slice is materialized at the call site even on a nil
// span, so hot loops that close spans per iteration should prefer
// EndInt.
func (s Span) EndArgs(args ...Arg) {
	if s.tk == nil {
		return
	}
	now := s.tk.t.now()
	s.tk.t.append(event{ph: 'X', tid: s.tk.tid, ts: s.t0, dur: now - s.t0, name: s.name, args: args})
}

// EndInt is End with a single integer arg. Unlike EndArgs it takes
// scalars, so the disabled (nil) path allocates nothing — use it when
// closing spans inside replay hot loops.
func (s Span) EndInt(key string, val int64) {
	if s.tk == nil {
		return
	}
	now := s.tk.t.now()
	s.tk.t.append(event{ph: 'X', tid: s.tk.tid, ts: s.t0, dur: now - s.t0, name: s.name, args: []Arg{{Key: key, Val: val}}})
}

// Counter is a named value-over-time lane. All methods are safe on a
// nil receiver and safe for concurrent use (samples serialize through
// the tracer).
type Counter struct {
	t    *Tracer
	name string
}

// Sample records the counter's current value at the current time.
func (c *Counter) Sample(v int64) {
	if c == nil {
		return
	}
	c.t.append(event{ph: 'C', ts: c.t.now(), name: c.name, val: v})
}
