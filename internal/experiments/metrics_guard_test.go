package experiments

import (
	"bytes"
	"io"
	"testing"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

// csvWriter is the common shape of every figure result.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

// These tests guard the zero-interference contract of the observability
// handles: instrumenting a figure sweep must never change its scientific
// output. Each figure's CSV is rendered through the plain sequential run
// (Env{Workers: 1}) and through every live Env of its guard table — a
// metrics sink here, a span recorder in trace_guard_test.go, and both at
// once (what dvf-repro -metrics - -trace-out f runs) — and the byte
// streams must be identical, while every live handle must actually have
// recorded something.

func csvFig(t *testing.T, env Env, run func(Env) (csvWriter, error)) []byte {
	t.Helper()
	res, err := run(env)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireLive(t *testing.T, s metrics.Sink) {
	t.Helper()
	snap := s.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		t.Fatal("live sink recorded no instruments; the sweep is not instrumented")
	}
}

// guardFig is one figure's guard table: run once with Env{Workers: 1},
// then once per live env as a subtest, comparing CSV bytes and checking
// each live handle with requireLive or requireValidTrace.
func guardFig(t *testing.T, run func(Env) (csvWriter, error), live ...Env) {
	t.Helper()
	off := csvFig(t, Env{Workers: 1}, run)
	for _, env := range live {
		name := "metrics"
		switch {
		case env.Metrics == nil:
			name = "tracer"
		case env.Tracer != nil:
			name = "metrics+tracer"
		}
		t.Run(name, func(t *testing.T) {
			if on := csvFig(t, env, run); !bytes.Equal(off, on) {
				t.Errorf("CSV differs with %s live", name)
			}
			if env.Metrics != nil {
				requireLive(t, env.Metrics)
			}
			if env.Tracer != nil {
				requireValidTrace(t, env.Tracer)
			}
		})
	}
}

// metricsEnvs is the metrics guard's table: a sink alone, and a sink
// with a recorder.
func metricsEnvs() []Env {
	return []Env{
		{Metrics: metrics.New()},
		{Metrics: metrics.New(), Tracer: tracez.New()},
	}
}

func fig4CSV(env Env) (csvWriter, error) { return RunFig4(env) }
func fig5CSV(env Env) (csvWriter, error) { return RunFig5(env) }
func fig6CSV(env Env) (csvWriter, error) { return RunFig6(env) }
func fig7CSV(env Env) (csvWriter, error) { return RunFig7(env) }

func TestFig7CSVUnchangedByMetrics(t *testing.T) {
	envs := metricsEnvs()
	guardFig(t, fig7CSV, envs...)
	// Fig7 has no fan-out: the task histogram belongs to Parallel alone,
	// so its count must match the task counter (zero here).
	for _, env := range envs {
		snap := env.Metrics.Snapshot()
		if got, want := snap.Histograms["experiments.task_ns"].Count, snap.Counters["experiments.tasks"]; got != want {
			t.Errorf("experiments.task_ns count %d, experiments.tasks %d", got, want)
		}
	}
}

func TestFig6CSVUnchangedByMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	guardFig(t, fig6CSV, metricsEnvs()...)
}

func TestFig5CSVUnchangedByMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is schedule-agnostic; race runs cover the instruments elsewhere")
	}
	guardFig(t, fig5CSV, metricsEnvs()...)
}

func TestFig4CSVUnchangedByMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is schedule-agnostic; race runs cover the instruments elsewhere")
	}
	guardFig(t, fig4CSV, metricsEnvs()...)
}
