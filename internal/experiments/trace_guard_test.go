package experiments

import (
	"bytes"
	"testing"

	"github.com/resilience-models/dvf/internal/tracez"
)

// The tracing half of the guard tables in metrics_guard_test.go: each
// figure's CSV with a live in-memory tracer alone must match the plain
// run byte for byte, and the trace it produced must itself be
// non-trivial and schema-valid.

// requireValidTrace dumps the tracer and runs the package's own schema
// validator over the result: named events, balanced pairs, non-negative
// timestamps, known metadata kinds.
func requireValidTrace(t *testing.T, tz *tracez.Tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tz.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := tracez.ValidateReader(&buf)
	if err != nil {
		t.Fatalf("live trace is schema-invalid: %v", err)
	}
	spans := 0
	for _, ev := range events {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("live tracer recorded no spans; the sweep is not instrumented")
	}
}

func TestFig7CSVUnchangedByTracing(t *testing.T) {
	guardFig(t, fig7CSV, Env{Tracer: tracez.New()})
}

func TestFig6CSVUnchangedByTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	guardFig(t, fig6CSV, Env{Tracer: tracez.New()})
}

func TestFig5CSVUnchangedByTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is schedule-agnostic; race runs cover the recorder elsewhere")
	}
	guardFig(t, fig5CSV, Env{Tracer: tracez.New()})
}

func TestFig4CSVUnchangedByTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is schedule-agnostic; race runs cover the recorder elsewhere")
	}
	guardFig(t, fig4CSV, Env{Tracer: tracez.New()})
}
