package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/metrics"
)

// smallOptions keeps the test runs fast: one small kernel, one cache.
func smallOptions(sink metrics.Sink) Options {
	return Options{
		Kernels: []string{"VM"},
		Configs: []cache.Config{cache.Small},
		Iters:   1,
		Sink:    sink,
	}
}

// TestRunProducesManifest runs the real pipeline end to end and checks the
// manifest invariants the CI artifact relies on: schema tag, environment
// stamps, one sequential replay cell per (kernel, cache) plus an analytic
// cell for affine kernels, and a populated metrics snapshot.
func TestRunProducesManifest(t *testing.T) {
	sink := metrics.New()
	m, err := Run(smallOptions(sink))
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != Schema {
		t.Errorf("schema = %q, want %q", m.Schema, Schema)
	}
	if m.GoVersion == "" || m.GOMAXPROCS <= 0 || m.NumCPU <= 0 {
		t.Errorf("environment stamps missing: %+v", m)
	}
	if len(m.Cells) != 2 {
		t.Fatalf("cells = %d, want 2 (analytic + sequential; VM is affine)", len(m.Cells))
	}
	for i := 1; i < len(m.Cells); i++ {
		if m.Cells[i-1].Key() >= m.Cells[i].Key() {
			t.Errorf("cells not key-sorted before encoding: %q >= %q",
				m.Cells[i-1].Key(), m.Cells[i].Key())
		}
	}
	byEngine := map[string]Cell{}
	for _, c := range m.Cells {
		byEngine[c.Engine] = c
	}
	seq := byEngine["sequential"]
	if seq.Kernel == "" || seq.Workers != 1 {
		t.Fatalf("missing sequential cell, got %+v", m.Cells)
	}
	an := byEngine["analytic"]
	if an.Kernel == "" {
		t.Fatalf("missing analytic cell for affine VM, got %+v", m.Cells)
	}
	if an.Refs != seq.Refs {
		t.Errorf("analytic cell refs %d != recorded %d; NsPerRef would not be comparable", an.Refs, seq.Refs)
	}
	if an.Stats != (cache.Stats{}) {
		t.Errorf("analytic cell carries replay counters %+v; predictions must not pose as simulated stats", an.Stats)
	}
	if an.WallNs <= 0 {
		t.Errorf("analytic cell not timed: %+v", an)
	}
	if seq.Refs <= 0 || seq.WallNs <= 0 || seq.NsPerRef <= 0 {
		t.Errorf("sequential cell not measured: %+v", seq)
	}
	if seq.Stats.Accesses == 0 || seq.Stats.Misses == 0 {
		t.Errorf("replay simulated nothing: %+v", seq.Stats)
	}
	if m.Metrics.Counters["bench.record.refs"] != seq.Refs {
		t.Errorf("metrics snapshot recorded %d refs, cells say %d",
			m.Metrics.Counters["bench.record.refs"], seq.Refs)
	}
	if !strings.HasPrefix(m.Filename(), "BENCH_") || !strings.HasSuffix(m.Filename(), ".json") {
		t.Errorf("manifest filename %q is not BENCH_*.json", m.Filename())
	}
}

// TestManifestJSONRoundTrip writes a real manifest and reads it back.
func TestManifestJSONRoundTrip(t *testing.T) {
	m, err := Run(smallOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(m.Cells) || back.Timestamp != m.Timestamp {
		t.Errorf("round trip lost data: %+v vs %+v", back, m)
	}
}

// TestReadManifestRejectsWrongSchema checks the version gate.
func TestReadManifestRejectsWrongSchema(t *testing.T) {
	if _, err := ReadManifest(strings.NewReader(`{"schema":"dvf-bench/v999"}`)); err == nil {
		t.Fatal("wrong-schema manifest was accepted")
	}
}

// syntheticManifest builds a baseline with known ns/ref values.
func syntheticManifest(nsPerRef map[string]float64) *Manifest {
	m := NewManifest()
	for key, ns := range nsPerRef {
		parts := strings.SplitN(key, "/", 3)
		m.Cells = append(m.Cells, Cell{
			Kernel: parts[0], Cache: parts[1], Engine: parts[2],
			Refs: 1000, WallNs: int64(ns * 1000), NsPerRef: ns,
		})
	}
	return m
}

// TestCompareFlagsInjectedRegression is the acceptance check: a >= 20%
// ns/ref regression injected into one cell must fail the gate, and the
// gate's exit decision (Failed) must say so.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	old := syntheticManifest(map[string]float64{
		"VM/small/sequential": 10.0,
		"VM/small/analytic":   4.0,
	})
	// 25% regression on the sequential cell, analytic unchanged.
	new := syntheticManifest(map[string]float64{
		"VM/small/sequential": 12.5,
		"VM/small/analytic":   4.0,
	})
	res := Compare(old, new, CompareOptions{MaxRegressPct: 20})
	if !res.Failed() {
		t.Fatal("25%% regression at a 20%% threshold did not fail the gate")
	}
	if len(res.Regressions) != 1 || res.Regressions[0].Key != "VM/small/sequential" {
		t.Fatalf("regressions = %+v, want exactly VM/small/sequential", res.Regressions)
	}
	if got := res.Regressions[0].DeltaPct; got < 24.9 || got > 25.1 {
		t.Errorf("delta = %.2f%%, want 25%%", got)
	}
	if res.Unchanged != 1 {
		t.Errorf("unchanged = %d, want 1", res.Unchanged)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "REGRESSION VM/small/sequential") {
		t.Errorf("report missing regression line:\n%s", buf.String())
	}
}

// TestCompareWithinThresholdPasses checks the tolerant side of the gate,
// including improvements and coverage-only differences.
func TestCompareWithinThresholdPasses(t *testing.T) {
	old := syntheticManifest(map[string]float64{
		"VM/small/sequential": 10.0,
		"CG/small/sequential": 8.0,
		"MG/small/sequential": 5.0,
	})
	new := syntheticManifest(map[string]float64{
		"VM/small/sequential": 11.5, // +15%: inside a 20% threshold
		"CG/small/sequential": 2.0,  // -75%: improvement, never a failure
		"FT/small/sequential": 3.0,  // new coverage, never a failure
	})
	res := Compare(old, new, CompareOptions{}) // default threshold
	if res.Failed() {
		t.Fatalf("gate failed without a regression: %+v", res.Regressions)
	}
	if res.Threshold != DefaultRegressPct {
		t.Errorf("threshold = %v, want default %v", res.Threshold, DefaultRegressPct)
	}
	if len(res.Improved) != 1 || res.Improved[0].Key != "CG/small/sequential" {
		t.Errorf("improved = %+v", res.Improved)
	}
	if len(res.OnlyNew) != 1 || res.OnlyNew[0] != "FT/small/sequential" {
		t.Errorf("only-new = %+v", res.OnlyNew)
	}
	if len(res.OnlyOld) != 1 || res.OnlyOld[0] != "MG/small/sequential" {
		t.Errorf("only-old = %+v", res.OnlyOld)
	}
}

// TestCompareEnvNotes checks that environment drift between the baseline
// and the current run is surfaced as informational notes without ever
// failing the gate.
func TestCompareEnvNotes(t *testing.T) {
	old := syntheticManifest(map[string]float64{"VM/small/sequential": 10.0})
	new := syntheticManifest(map[string]float64{"VM/small/sequential": 10.0})
	old.GoVersion = "go1.21.0"
	new.GoVersion = "go1.22.0"
	old.GOMAXPROCS, new.GOMAXPROCS = 4, 16
	old.GitRev, new.GitRev = "aaaa", "bbbb"
	res := Compare(old, new, CompareOptions{})
	if res.Failed() {
		t.Fatal("environment drift alone failed the gate")
	}
	if len(res.EnvNotes) != 3 {
		t.Fatalf("env notes = %v, want 3 (go version, GOMAXPROCS, git rev)", res.EnvNotes)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "note: go version differs") {
		t.Errorf("report missing env note:\n%s", buf.String())
	}
	same := Compare(old, old, CompareOptions{})
	if len(same.EnvNotes) != 0 {
		t.Errorf("identical environments produced notes: %v", same.EnvNotes)
	}
}

// TestRenderSummaryDigests checks the summary includes the git rev stamp
// and per-histogram latency quantile digests.
func TestRenderSummaryDigests(t *testing.T) {
	sink := metrics.New()
	m, err := Run(smallOptions(sink))
	if err != nil {
		t.Fatal(err)
	}
	m.GitRev = "abc123def456"
	var buf bytes.Buffer
	if err := RenderSummary(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rev=abc123def456") {
		t.Errorf("summary missing git rev:\n%s", out)
	}
	if !strings.Contains(out, "latency bench.record_ns") || !strings.Contains(out, "p90<=") {
		t.Errorf("summary missing latency quantile digest:\n%s", out)
	}
}

// TestCompareRealRunAgainstItself replays a real manifest against itself:
// zero delta everywhere, so the gate must pass at any threshold.
func TestCompareRealRunAgainstItself(t *testing.T) {
	m, err := Run(smallOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	res := Compare(m, m, CompareOptions{MaxRegressPct: 0.5})
	if res.Failed() || len(res.OnlyOld) > 0 || len(res.OnlyNew) > 0 {
		t.Errorf("self-compare not clean: %+v", res)
	}
}
