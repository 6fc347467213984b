package experiments

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 100} {
		const n = 37
		var hits [n]atomic.Int32
		err := Parallel(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelReturnsFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := Parallel(10, 0, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Errorf("got %v, want the lowest-index error %v", err, errA)
	}
}

func TestParallelSequentialShortCircuits(t *testing.T) {
	ran := 0
	err := Parallel(10, 1, func(i int) error {
		ran++
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || ran != 3 {
		t.Errorf("sequential mode ran %d calls (err %v), want 3 then stop", ran, err)
	}
}

func TestParallelHonorsWorkerBound(t *testing.T) {
	const n, workers = 64, 3
	var inFlight, peak atomic.Int32
	var mu sync.Mutex
	err := Parallel(n, workers, func(int) error {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		defer inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds bound %d", p, workers)
	}
}

func TestParallelZeroTasks(t *testing.T) {
	if err := Parallel(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Error(err)
	}
}
