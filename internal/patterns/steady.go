package patterns

import "github.com/resilience-models/dvf/internal/cache"

// Periodic is a deterministic model driven by a repeated period body:
// what one period does to its counters depends only on the model's
// state. cache.Simulator and TemplateCounter are both. RunPeriods keeps
// its snapshots as encodings of that state.
type Periodic interface {
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
// simulating as soon as m's state proves that the rest repeats, by two
// exact rules:
//
//   - A period that ends in the state it started from repeats: every
//     later period starts from that state too, so it changes the
//     counters by the same delta and leaves the state unchanged.
//   - A period that evicts nothing leaves every block it touched
//     resident. The next period makes the same references, so it hits
//     on every access and leaves the state as it was: each later period
//     adds its accesses, as hits, and no miss, writeback or eviction.
//
// Without a repeat every period runs. The comparisons are of state,
// never of counters: two periods with equal deltas can still leave
// different states behind. The period-end snapshot is taken at every
// period but the last.
func RunPeriods(periods int, m Periodic, read func(dst []cache.Stats) []cache.Stats, body func()) []cache.Stats {
	start := read(nil)
	var cur []cache.Stats
	var end []uint64
	for period := 1; period <= periods; period++ {
		last := period == periods
		if !last {
			end = m.AppendState(end[:0])
		}
		evictions := m.Evictions()
		body()
		cur = read(cur[:0])
		if !last {
			left := int64(periods - period)
			if evictions >= 0 && m.Evictions() == evictions {
				for i := range cur {
					d := cur[i].Accesses - start[i].Accesses
					cur[i].Accesses += left * d
					cur[i].Hits += left * d
				}
				return cur
			}
			if m.SameAs(end) {
				extrapolate(cur, start, cur, left)
				return cur
			}
		}
		start, cur = cur, start
	}
	return start
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
