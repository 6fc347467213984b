package patterns

import "testing"

// TestRunPeriodsStopsOnRepeat streams 8 blocks through a 4-block counter
// ten times: the LRU state after the second pass equals the state after
// the first, so two passes are simulated and the other eight counted.
// Raw-distance mode never reports a repeat and runs all ten.
func TestRunPeriodsStopsOnRepeat(t *testing.T) {
	for _, c := range []struct {
		raw       bool
		wantCalls int
	}{{false, 2}, {true, 10}} {
		ctr := NewTemplateCounter(4, c.raw)
		calls := 0
		got := RunPeriods(10, ctr, func(dst []int64) []int64 { return append(dst, ctr.Misses()) }, func() {
			calls++
			for b := int64(0); b < 8; b++ {
				ctr.Visit(b)
			}
		})
		if got[0] != 80 || calls != c.wantCalls {
			t.Errorf("raw=%v: %d misses in %d simulated periods, want 80 in %d", c.raw, got[0], calls, c.wantCalls)
		}
	}
}

// TestRunPeriodsNoPeriods returns the counters as they stand when there
// is no period to run.
func TestRunPeriodsNoPeriods(t *testing.T) {
	ctr := NewTemplateCounter(4, false)
	ctr.Visit(1)
	got := RunPeriods(0, ctr, func(dst []int64) []int64 { return append(dst, ctr.Misses()) }, func() {
		t.Fatal("body ran with no periods")
	})
	if got[0] != 1 {
		t.Errorf("misses %d, want 1", got[0])
	}
}
