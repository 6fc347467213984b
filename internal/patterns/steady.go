package patterns

// Periodic is a deterministic model driven by a repeated period body:
// what one period does to its counters depends only on the state
// SaveState snapshots. cache.Simulator and TemplateCounter are both.
type Periodic interface {
	// SaveState snapshots the state, replacing any earlier snapshot.
	SaveState()
	// SameState reports whether the state equals the last snapshot.
	SameState() bool
}

// RunPeriods runs body periods times against m and returns the counters
// read appends to its argument, as they stand after the last period. It
// stops simulating once a period leaves m in the state it started from:
// every later period then starts from that same state, so it repeats
// that period's counter deltas exactly and leaves the state unchanged
// again, and the remaining periods are added as multiples of the last
// delta. Without such a repeat every period runs. Each simulated period
// but the last costs one SaveState and one SameState. The comparison is
// of state, never of counters: two periods with equal deltas can still
// leave different states behind.
func RunPeriods(periods int, m Periodic, read func(dst []int64) []int64, body func()) []int64 {
	prev := read(nil)
	cur := make([]int64, 0, len(prev))
	for done := 1; done <= periods; done++ {
		last := done == periods
		if !last {
			m.SaveState()
		}
		body()
		cur = read(cur[:0])
		if !last && m.SameState() {
			left := int64(periods - done)
			for i := range cur {
				cur[i] += left * (cur[i] - prev[i])
			}
			return cur
		}
		prev, cur = cur, prev
	}
	return prev
}
