package patterns

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// counterStats reads a TemplateCounter for RunPeriods.
func counterStats(ctr *TemplateCounter) func([]cache.Stats) []cache.Stats {
	return func(dst []cache.Stats) []cache.Stats { return append(dst, ctr.Stats()) }
}

// TestRunPeriodsStopsOnRepeat streams 8 blocks through a 4-block counter
// ten times: the LRU state after the second pass equals the state after
// the first, so two passes are simulated and the other eight counted.
func TestRunPeriodsStopsOnRepeat(t *testing.T) {
	ctr := NewTemplateCounter(4)
	calls := 0
	got := RunPeriods(10, ctr, counterStats(ctr), func() {
		calls++
		for b := int64(0); b < 8; b++ {
			ctr.Visit(b)
		}
	})
	if got[0].Misses != 80 || got[0].Accesses != 80 || calls != 2 {
		t.Errorf("%+v in %d simulated periods, want 80 misses in 80 visits in 2", got[0], calls)
	}
}

// TestRunPeriodsStopsWithoutEvictions: a pass that fits evicts nothing,
// so every later pass hits and only the first is simulated, in the
// counter and in a simulator.
func TestRunPeriodsStopsWithoutEvictions(t *testing.T) {
	ctr := NewTemplateCounter(8)
	calls := 0
	got := RunPeriods(10, ctr, counterStats(ctr), func() {
		calls++
		for b := int64(0); b < 6; b++ {
			ctr.Visit(b)
		}
	})
	if want := (cache.Stats{Accesses: 60, Hits: 54, Misses: 6}); got[0] != want || calls != 1 {
		t.Errorf("counter: %+v in %d simulated periods, want %+v in 1", got[0], calls, want)
	}

	sim, err := cache.NewSimulator(cache.Config{Name: "t", Associativity: 2, Sets: 4, LineSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	got = RunPeriods(10, sim, func(dst []cache.Stats) []cache.Stats { return append(dst, sim.StructStats(1)) }, func() {
		calls++
		for b := uint64(0); b < 6; b++ {
			sim.Access(8*b, 8, b%2 == 0, 1)
		}
	})
	if want := (cache.Stats{Accesses: 60, Hits: 54, Misses: 6}); got[0] != want || calls != 1 {
		t.Errorf("simulator: %+v in %d simulated periods, want %+v in 1", got[0], calls, want)
	}
}

// TestRunPeriodsZeroCapacity: a counter with no capacity evicts each
// block as it loads it, so no pass settles as evicting nothing, and
// every pass misses on every visit.
func TestRunPeriodsZeroCapacity(t *testing.T) {
	ctr := NewTemplateCounter(0)
	got := RunPeriods(10, ctr, counterStats(ctr), func() {
		for b := int64(0); b < 3; b++ {
			ctr.Visit(b)
		}
	})
	if want := (cache.Stats{Accesses: 30, Misses: 30, Evictions: 30}); got[0] != want {
		t.Errorf("%+v, want %+v", got[0], want)
	}
}

// TestRunPeriodsNoPeriods returns the counters as they stand when there
// is no period to run.
func TestRunPeriodsNoPeriods(t *testing.T) {
	ctr := NewTemplateCounter(4)
	ctr.Visit(1)
	got := RunPeriods(0, ctr, counterStats(ctr), func() {
		t.Fatal("body ran with no periods")
	})
	if got[0].Misses != 1 {
		t.Errorf("misses %d, want 1", got[0].Misses)
	}
}
