package experiments

import (
	"bytes"
	"testing"
)

// The analytic engine's experiments-layer contract: the live differential
// stays within the documented tolerances, its CSV is deterministic across
// fan-out schedules, and the analytic figure variants reproduce their
// goldens byte for byte (the per-solver accuracy wall lives in
// internal/analytic; these tests cover the wiring above it).

func TestAnalyticDiffWithinTolerance(t *testing.T) {
	res, err := RunAnalyticDiff(nil, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Cells) == 0 {
		t.Fatalf("empty differential: %d rows, %d cells", len(res.Rows), len(res.Cells))
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenAnalyticDiffCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("verification replays are slow")
	}
	render := func(workers int) []byte {
		res, err := RunAnalyticDiff(nil, Env{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	if par := render(0); !bytes.Equal(seq, par) {
		t.Error("parallel analytic-diff CSV differs from the sequential run")
	}
	goldenCompare(t, "analytic_diff.csv", seq)
}

func TestGoldenFig4AnalyticCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("model estimators replay template traces")
	}
	res, err := RunFig4Analytic()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig4_analytic.csv", buf.Bytes())
}

func TestGoldenFig5AnalyticCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling-size kernel runs are slow")
	}
	res, err := RunFig5Analytic()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig5_analytic.csv", buf.Bytes())
}

func TestGoldenFig6AnalyticCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	res, err := RunFig6Analytic()
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossoverSize() == 0 {
		t.Error("analytic Fig6 lost the CG/PCG crossover")
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig6_analytic.csv", buf.Bytes())
}
