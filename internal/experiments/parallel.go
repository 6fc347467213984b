package experiments

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Env chooses how a figure driver runs: how many of its independent
// cells are in flight and which observability handles it feeds. The zero
// Env is the plain run — unbounded fan-out, no metrics, no timeline.
// Both handles are nil-safe, so a driver threads them through without
// checking; the results are byte-identical for every Env (the metrics
// and tracing guard tests assert this for every figure).
type Env struct {
	// Workers bounds the cells in flight: 1 runs them one after another
	// in the caller's goroutine, 0 or a negative count imposes no bound,
	// anything else gates them through a semaphore. RunFig7 has no
	// cells and ignores it.
	Workers int
	// Metrics receives per-task and per-cell instruments; nil records
	// nothing.
	Metrics metrics.Sink
	// Tracer receives spans and counter lanes for the run's timeline;
	// nil records nothing.
	Tracer tracez.Recorder
}

// Parallel runs fn(0) … fn(n-1), returning the first error in index order.
//
// env.Workers bounds the number of concurrently running calls: 1 runs
// every call sequentially in the caller's goroutine (the deterministic
// fallback behind the drivers' -workers=1 flag — no goroutines at all),
// 0 or a value >= n imposes no bound (the historical fan-out of the
// figure drivers), and anything in between gates the calls through a
// semaphore. All experiment fan-outs — RunFig4, RunFig5, RunFig6,
// RunAnalyticDiff and core.Explore — route through this helper, so its
// concurrency discipline is what the race-targeted tests exercise.
//
// With a live env.Metrics each task's wall time lands in the
// "experiments.task_ns" histogram, and the "experiments.tasks" and
// "experiments.busy_ns" counters and the "experiments.wall_ns" counter
// for the fan-out's own elapsed time accumulate — the inputs to a
// worker-utilization ratio busy/(wall*workers). With a live env.Tracer
// each task samples the "experiments.inflight" counter on entry and exit
// (the fan-out's concurrency over time, a stepped lane in Perfetto) and
// runs under a pprof goroutine label ("experiments.task" = index), so
// live CPU and goroutine profiles can attribute samples to figure cells.
// With neither, the task closures are not even wrapped, so the
// scheduling (and therefore any timing-sensitive interleaving) is
// untouched.
func Parallel(n int, env Env, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	if env.Tracer != nil {
		inflight := env.Tracer.Counter("experiments.inflight")
		// The count and its sample move together under one lock, so the
		// lane's samples arrive in count order and the last one is 0.
		var mu sync.Mutex
		var cur int64
		step := func(d int64) {
			mu.Lock()
			defer mu.Unlock()
			cur += d
			inflight.Sample(cur)
		}
		inner := fn
		fn = func(i int) error {
			step(1)
			defer step(-1)
			var err error
			pprof.Do(context.Background(), pprof.Labels("experiments.task", strconv.Itoa(i)), func(context.Context) {
				err = inner(i)
			})
			return err
		}
	}
	if ms := env.Metrics; ms != nil {
		taskNs := ms.Histogram("experiments.task_ns")
		tasks := ms.Counter("experiments.tasks")
		busy := ms.Counter("experiments.busy_ns")
		wall := ms.Counter("experiments.wall_ns")
		inner := fn
		fn = func(i int) error {
			t0 := time.Now()
			err := inner(i)
			d := time.Since(t0).Nanoseconds()
			taskNs.Observe(d)
			busy.Add(d)
			tasks.Inc()
			return err
		}
		t0 := time.Now()
		defer func() { wall.Add(time.Since(t0).Nanoseconds()) }()
	}
	if env.Workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var sem chan struct{}
	if env.Workers > 0 && env.Workers < n {
		sem = make(chan struct{}, env.Workers)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
