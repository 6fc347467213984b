package experiments

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

func TestParallelRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 100} {
		const n = 37
		var hits [n]atomic.Int32
		err := Parallel(n, Env{Workers: workers}, func(i int) error {
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
	err := Parallel(10, Env{}, func(i int) error {
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
	err := Parallel(10, Env{Workers: 1}, func(i int) error {
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
	err := Parallel(n, Env{Workers: workers}, func(int) error {
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
	if err := Parallel(0, Env{Workers: 4}, func(int) error { return errors.New("never") }); err != nil {
		t.Error(err)
	}
}

func TestParallelInstrumentsCountExactly(t *testing.T) {
	const n, workers = 24, 3
	env := Env{Workers: workers, Metrics: metrics.New(), Tracer: tracez.New()}
	err := Parallel(n, env, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := env.Metrics.Snapshot()
	if got := snap.Counters["experiments.tasks"]; got != n {
		t.Errorf("experiments.tasks = %d, want %d", got, n)
	}
	if got := snap.Histograms["experiments.task_ns"].Count; got != n {
		t.Errorf("experiments.task_ns count = %d, want %d", got, n)
	}
	for _, name := range []string{"experiments.busy_ns", "experiments.wall_ns"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("%s = %d, want > 0", name, snap.Counters[name])
		}
	}

	var buf bytes.Buffer
	if err := env.Tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := tracez.ValidateReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var samples []float64
	for _, ev := range events {
		if ev.Ph == "C" && ev.Name == "experiments.inflight" {
			samples = append(samples, ev.Args["value"].(float64))
		}
	}
	if len(samples) != 2*n {
		t.Fatalf("%d inflight samples, want %d (one on entry, one on exit per task)", len(samples), 2*n)
	}
	for i, v := range samples {
		if v < 0 || v > workers {
			t.Errorf("inflight sample %d = %v, outside [0, %d]", i, v, workers)
		}
	}
	if last := samples[len(samples)-1]; last != 0 {
		t.Errorf("last inflight sample = %v, want 0", last)
	}
}
