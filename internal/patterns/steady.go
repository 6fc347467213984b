package patterns

import (
	"math/bits"

	"github.com/resilience-models/dvf/internal/cache"
)

// Periodic is a deterministic model driven by a repeated period body:
// what one period does to its counters depends only on the model's
// state. cache.Simulator and TemplateCounter are both. RunPeriods keeps
// its snapshots as encodings of that state.
type Periodic interface {
	// StateLen returns the length of the state's encoding.
	StateLen() int
	// StateCap returns the longest encoding the model can produce.
	StateCap() int
	// AppendState appends the state's encoding to dst. Two states have
	// equal encodings exactly when they are equal.
	AppendState(dst []uint64) []uint64
	// SameAs reports whether the state equals the one snap encodes.
	SameAs(snap []uint64) bool
	// Evictions returns how many blocks the model has evicted so far, or
	// -1 when it cannot tell, as when a block can miss without anything
	// leaving the model.
	Evictions() int64
}

// RunPeriods runs body periods times against m and returns the counters
// read appends, as they stand after the last period. It stops
// simulating as soon as m's state proves that the rest repeats, by
// three exact rules:
//
//   - A period that ends in the state it started from repeats: every
//     later period starts from that state too, so it changes the
//     counters by the same delta and leaves the state unchanged.
//   - A repeat at a checkpoint. The body calls mark at fixed points of
//     a period; CG's template calls it after each matvec row. At marks
//     1, 2, 4, ... RunPeriods snapshots the state and the counters, and
//     at the same marks of the next period it compares the state with
//     the snapshot. When mark k of period P+1 finds the state of mark k
//     of period P, the stream from that point on repeats with the
//     period's length, so every later period adds c(P+1,k) - c(P,k) and
//     the result is c(P,end) + (periods-P)*(c(P+1,k) - c(P,k)). mark
//     then returns true, and the body must return at once.
//   - A period that evicts nothing leaves every block it touched
//     resident. The next period makes the same references, so it hits
//     on every access and leaves the state as it was: each later period
//     adds its accesses, as hits, and no miss, writeback or eviction.
//
// Without a repeat every period runs. The comparisons are of state,
// never of counters: two periods with equal deltas can still leave
// different states behind.
//
// The period-end snapshot is taken at every period but the last. The
// checkpoint snapshots share storage for one state of StateCap words,
// allocated at the first checkpoint taken, and are bounded by it and by
// the work they could save. A checkpoint is skipped when the state grew
// since the period's previous checkpoint (or its start), as it does
// while a cache fills: such a state can match the next period's only if
// it stops growing right at that mark. It is skipped too when its
// encoding is longer than the accesses made since its period began, or
// when no room is left. A checkpoint shorter than a later one of the
// same period is dropped to make room: a model's state does not shrink
// while a body presents references, so the shorter one can no longer
// match.
func RunPeriods(periods int, m Periodic, read func(dst []cache.Stats) []cache.Stats, body func(mark func() bool)) []cache.Stats {
	r := &periodRunner{m: m, read: read, periods: periods}
	r.start = read(nil)
	mark := r.mark
	var end []uint64
	for r.period = 1; r.period <= periods; r.period++ {
		last := r.period == periods
		if !last {
			end = m.AppendState(end[:0])
			r.lastLen = len(end)
		}
		evictions := m.Evictions()
		r.marks = 0
		body(mark)
		if r.result != nil {
			return r.result
		}
		r.cur = read(r.cur[:0])
		if !last {
			left := int64(periods - r.period)
			if evictions >= 0 && m.Evictions() == evictions {
				for i := range r.cur {
					d := r.cur[i].Accesses - r.start[i].Accesses
					r.cur[i].Accesses += left * d
					r.cur[i].Hits += left * d
				}
				return r.cur
			}
			if m.SameAs(end) {
				extrapolate(r.cur, r.start, r.cur, left)
				return r.cur
			}
		}
		r.start, r.cur = r.cur, r.start
	}
	return r.start
}

// periodRunner is RunPeriods' state between marks.
type periodRunner struct {
	m       Periodic
	read    func([]cache.Stats) []cache.Stats
	periods int

	period     int           // the period running, from 1
	marks      int           // marks the body has made in it
	lastLen    int           // the state's length at its last checkpoint, or its start
	start, cur []cache.Stats // the counters as it began, and at the last read
	result     []cache.Stats // the counters, once a checkpoint repeat ends the walk

	// ring holds the checkpoints' encodings, StateCap words; next is
	// the offset just past the last one written.
	ring []uint64
	next int
	// checkpoints[i] is mark 2^i's snapshot.
	checkpoints []checkpoint
}

// checkpoint is one mark's snapshot: its state's encoding at
// ring[off:off+n] and the counters at that mark of period, or no
// snapshot when period is 0.
type checkpoint struct {
	period int
	off, n int
	counts []cache.Stats
}

// mark is the body's mark callback: at marks 1, 2, 4, ... it compares
// the state with the last period's snapshot at the same mark, and
// snapshots it for the next period.
func (r *periodRunner) mark() bool {
	r.marks++
	k := r.marks
	if k&(k-1) != 0 {
		return false
	}
	i := bits.Len(uint(k)) - 1
	for len(r.checkpoints) <= i {
		r.checkpoints = append(r.checkpoints, checkpoint{})
	}
	cp := &r.checkpoints[i]
	r.cur = r.read(r.cur[:0])
	if cp.period != 0 && cp.period == r.period-1 {
		cp.period = 0
		if r.m.SameAs(r.ring[cp.off : cp.off+cp.n]) {
			// r.start is c(P,end) for P = r.period-1.
			r.result = extrapolate(r.start, cp.counts, r.cur, int64(r.periods-r.period+1))
			return true
		}
	}
	if r.period < r.periods {
		n := r.m.StateLen()
		if n == r.lastLen {
			r.save(cp, n)
		}
		r.lastLen = n
	}
	return false
}

// save snapshots the state, of encoding length n, and the counters into
// cp, unless the snapshot is longer than the accesses made since the
// period began or finds no room in the ring.
func (r *periodRunner) save(cp *checkpoint, n int) {
	var work int64
	for i := range r.cur {
		work += r.cur[i].Accesses - r.start[i].Accesses
	}
	if int64(n) > work {
		return
	}
	for i := range r.checkpoints {
		if c := &r.checkpoints[i]; c.period == r.period && c.n < n {
			c.period = 0
		}
	}
	if r.ring == nil {
		r.ring = make([]uint64, 0, r.m.StateCap())
	}
	off, ok := r.room(n)
	if !ok {
		return
	}
	r.ring = r.m.AppendState(r.ring[:off])
	cp.period, cp.off, cp.n = r.period, off, n
	cp.counts = append(cp.counts[:0], r.cur...)
	r.next = off + n
}

// room returns where in the ring n words fit without overwriting a
// live checkpoint: just past the last one written, or else at the
// start.
func (r *periodRunner) room(n int) (int, bool) {
	for _, off := range [2]int{r.next, 0} {
		if off+n > cap(r.ring) {
			continue
		}
		free := true
		for i := range r.checkpoints {
			c := &r.checkpoints[i]
			if c.period != 0 && c.period >= r.period-1 && off < c.off+c.n && c.off < off+n {
				free = false
				break
			}
		}
		if free {
			return off, true
		}
	}
	return 0, false
}

// extrapolate adds times*(to - from) to base, field by field, and
// returns base. to may be base itself.
func extrapolate(base, from, to []cache.Stats, times int64) []cache.Stats {
	for i := range base {
		b, f, t := &base[i], &from[i], &to[i]
		b.Accesses += times * (t.Accesses - f.Accesses)
		b.Hits += times * (t.Hits - f.Hits)
		b.Misses += times * (t.Misses - f.Misses)
		b.Writebacks += times * (t.Writebacks - f.Writebacks)
		b.Evictions += times * (t.Evictions - f.Evictions)
	}
	return base
}
