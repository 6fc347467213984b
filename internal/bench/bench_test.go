package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// samplePath is real `go test -bench -count 10` output of two packages
// of the suite, with a test-only package's PASS/ok lines around them.
var samplePath = filepath.Join("testdata", "gotest-bench.txt")

func parseSample(t *testing.T) *Manifest {
	t.Helper()
	f, err := os.Open(samplePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestParseProducesManifest checks the manifest invariants the CI
// artifact relies on: schema tag, host fields from the headers, one cell
// per benchmark keyed by package and name without the -P suffix (Go's
// escaping kept), -count samples per cell, quartiles around the median,
// a bound no tighter than the floor, and cells in key order.
func TestParseProducesManifest(t *testing.T) {
	m := parseSample(t)
	if m.Schema != Schema {
		t.Errorf("schema = %q, want %q", m.Schema, Schema)
	}
	if m.GOOS != "linux" || m.GOARCH != "amd64" || m.CPU != "Intel(R) Xeon(R) Processor" || m.GOMAXPROCS != 2 {
		t.Errorf("host fields = %q %q %q GOMAXPROCS %d", m.GOOS, m.GOARCH, m.CPU, m.GOMAXPROCS)
	}
	if len(m.Cells) != 14 {
		t.Fatalf("cells = %d, want 14 (2 aspen + 12 experiments)", len(m.Cells))
	}
	byKey := map[string]Cell{}
	for i, c := range m.Cells {
		byKey[c.Key()] = c
		if i > 0 && m.Cells[i-1].Key() >= c.Key() {
			t.Errorf("cells not key-sorted: %q >= %q", m.Cells[i-1].Key(), c.Key())
		}
		if c.Samples != 10 || !(c.Q1 <= c.Median && c.Median <= c.Q3) || c.Bound < minBound || c.Bound > maxBound {
			t.Errorf("%s: %+v", c.Key(), c)
		}
	}
	fft, ok := byKey["github.com/resilience-models/dvf/internal/aspen:BenchmarkAspenEvaluate/fft"]
	if !ok {
		t.Fatalf("no aspen fft cell among %v", keys(m))
	}
	// The ten fft samples sorted: ... 230674, 231603 ... around the middle.
	if fft.Median != (230674+231603)/2.0 {
		t.Errorf("fft median = %v, want 231138.5", fft.Median)
	}
	if _, ok := byKey["github.com/resilience-models/dvf/internal/experiments:BenchmarkVerifyKernel/CG/Small_(Verification)"]; !ok {
		t.Errorf("escaped sub-benchmark name lost: %v", keys(m))
	}
	m.Stamp()
	if m.GoVersion == "" || m.NumCPU <= 0 || m.Timestamp == "" {
		t.Errorf("Stamp left fields empty: %+v", m)
	}
	if !strings.HasPrefix(m.Filename(), "BENCH_") || !strings.HasSuffix(m.Filename(), ".json") {
		t.Errorf("manifest filename %q is not BENCH_*.json", m.Filename())
	}
}

func keys(m *Manifest) []string {
	var out []string
	for _, c := range m.Cells {
		out = append(out, c.Key())
	}
	return out
}

// TestParseFailsClosed: a failed run, mixed hosts or GOMAXPROCS values,
// malformed result lines, oversized input and input with no result are
// errors, never a partial manifest.
func TestParseFailsClosed(t *testing.T) {
	const head = "goos: linux\ngoarch: amd64\npkg: p\ncpu: X\n"
	for name, in := range map[string]string{
		"empty":             "",
		"no results":        head + "PASS\nok  \tp\t0.1s\n",
		"result before pkg": "BenchmarkA-2 \t 10\t 5 ns/op\n",
		"failed benchmark":  head + "BenchmarkA-2 \t 10\t 5 ns/op\n--- FAIL: BenchmarkB\nFAIL\n",
		"failed package":    head + "BenchmarkA-2 \t 10\t 5 ns/op\nFAIL\tp\t0.1s\n",
		"panic":             head + "BenchmarkA-2 \t 10\t 5 ns/op\npanic: boom\n",
		"two GOMAXPROCS":    head + "BenchmarkA-2 \t 10\t 5 ns/op\nBenchmarkA-4 \t 10\t 5 ns/op\n",
		"two cpus":          head + "BenchmarkA-2 \t 10\t 5 ns/op\ncpu: Y\n",
		"no ns/op":          head + "BenchmarkA-2 \t 10\t 5 B/op\n",
		"negative ns/op":    head + "BenchmarkA-2 \t 10\t -5 ns/op\n",
		"NaN ns/op":         head + "BenchmarkA-2 \t 10\t NaN ns/op\n",
		"oversized":         head + "BenchmarkA-2 \t 10\t 5 ns/op\n" + strings.Repeat("x\n", maxRunBytes/2),
		"overlong line":     head + "BenchmarkA-2 \t 10\t 5 ns/op " + strings.Repeat("x", 1<<17) + "\n",
	} {
		if m, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted, %d cells", name, len(m.Cells))
		}
	}
	// A bare benchmark name or a benchmark's own log line is not a result.
	m, err := Parse(strings.NewReader(head + "BenchmarkA\nBenchmarkA says hello\nBenchmarkA \t 10\t 5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 1 || m.Cells[0].Key() != "p:BenchmarkA" || m.Cells[0].Samples != 1 || m.GOMAXPROCS != 1 {
		t.Errorf("cells = %+v GOMAXPROCS %d, want one p:BenchmarkA sample at GOMAXPROCS 1", m.Cells, m.GOMAXPROCS)
	}
}

// TestManifestJSONRoundTrip writes a parsed manifest and reads it back.
func TestManifestJSONRoundTrip(t *testing.T) {
	m := parseSample(t)
	m.Stamp()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Errorf("round trip changed the manifest:\n%+v\n%+v", back, m)
	}
}

// TestReadManifestRejectsWrongSchema checks the version gate, including
// the v1 manifests of the old cell runner.
func TestReadManifestRejectsWrongSchema(t *testing.T) {
	for _, schema := range []string{"dvf-bench/v1", "dvf-bench/v999"} {
		if _, err := ReadManifest(strings.NewReader(`{"schema":"` + schema + `"}`)); err == nil {
			t.Errorf("%s manifest was accepted", schema)
		}
	}
}

// syntheticManifest builds a manifest on one host with known medians and
// bounds, keyed pkg:name.
func syntheticManifest(cells map[string][2]float64) *Manifest {
	m := &Manifest{Schema: Schema, GOOS: "linux", GOARCH: "amd64", CPU: "X", NumCPU: 2, GOMAXPROCS: 2}
	for key, mb := range cells {
		pkg, name, _ := strings.Cut(key, ":")
		m.Cells = append(m.Cells, Cell{Pkg: pkg, Name: name, Samples: 10,
			Median: mb[0], Q1: mb[0], Q3: mb[0], Bound: mb[1]})
	}
	return m
}

// TestCompareFlagsInjectedRegression is the acceptance check: a cell
// twice as slow as its baseline, past its stored bound, fails the gate
// and the report names it.
func TestCompareFlagsInjectedRegression(t *testing.T) {
	old := syntheticManifest(map[string][2]float64{
		"p:BenchmarkA": {100, 0.3},
		"p:BenchmarkB": {40, 0.3},
	})
	new := syntheticManifest(map[string][2]float64{
		"p:BenchmarkA": {200, 0.3},
		"p:BenchmarkB": {40, 0.3},
	})
	res := Compare(old, new)
	if !res.Failed() {
		t.Fatal("a 2x regression did not fail the gate")
	}
	if regs := res.Regressions(); len(regs) != 1 || regs[0].Key != "p:BenchmarkA" {
		t.Fatalf("regressions = %+v, want exactly p:BenchmarkA", regs)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasSuffix(line, " p:BenchmarkA") && !strings.HasPrefix(line, "REGRESSION  +100.0% (bound  30%)") {
			t.Errorf("regression line %q", line)
		}
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Errorf("report names no regression:\n%s", buf.String())
	}
}

// TestCompareWithinThresholdPasses checks the tolerant side of the gate:
// each cell is judged by the baseline's own bound, and improvements never
// fail.
func TestCompareWithinThresholdPasses(t *testing.T) {
	old := syntheticManifest(map[string][2]float64{
		"p:BenchmarkA": {100, 0.3},
		"p:BenchmarkB": {100, 0.6},
		"p:BenchmarkC": {100, 0.3},
	})
	new := syntheticManifest(map[string][2]float64{
		"p:BenchmarkA": {129, 0.1}, // +29%: inside A's bound; the new run's own bound is not the one applied
		"p:BenchmarkB": {150, 0.3}, // +50%: inside B's wider bound
		"p:BenchmarkC": {20, 0.3},  // -80%: an improvement
	})
	if res := Compare(old, new); res.Failed() {
		t.Fatalf("gate failed without a regression: %+v", res)
	}
	for i := range new.Cells {
		if new.Cells[i].Name == "BenchmarkA" {
			new.Cells[i].Median = 131
		}
	}
	if res := Compare(old, new); !res.Failed() || res.Regressions()[0].Key != "p:BenchmarkA" {
		t.Errorf("+31%% past a 30%% bound passed: %+v", res)
	}
}

// TestCompareFailsOnCoverage: a cell in only one of the two manifests
// fails the gate, whichever side it is on.
func TestCompareFailsOnCoverage(t *testing.T) {
	old := syntheticManifest(map[string][2]float64{"p:BenchmarkA": {100, 0.3}, "p:BenchmarkB": {100, 0.3}})
	new := syntheticManifest(map[string][2]float64{"p:BenchmarkA": {100, 0.3}, "p:BenchmarkC": {100, 0.3}})
	res := Compare(old, new)
	if !res.Failed() || len(res.Regressions()) != 0 {
		t.Fatalf("coverage change did not fail the gate on its own: %+v", res)
	}
	if !reflect.DeepEqual(res.OnlyOld, []string{"p:BenchmarkB"}) || !reflect.DeepEqual(res.OnlyNew, []string{"p:BenchmarkC"}) {
		t.Errorf("only-old %v, only-new %v", res.OnlyOld, res.OnlyNew)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"only in baseline: p:BenchmarkB", "only in this run: p:BenchmarkC"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestCompareEnvNotes: a baseline from another host (cpu model, CPU
// count, GOMAXPROCS or platform) reports timings without gating them,
// while coverage stays gated; a Go version or commit difference alone
// leaves timings gated.
func TestCompareEnvNotes(t *testing.T) {
	old := syntheticManifest(map[string][2]float64{"p:BenchmarkA": {100, 0.3}})
	new := syntheticManifest(map[string][2]float64{"p:BenchmarkA": {300, 0.3}})
	old.GoVersion, new.GoVersion = "go1.21.0", "go1.22.0"
	old.GitRev, new.GitRev = "aaaa", "bbbb"
	if res := Compare(old, new); !res.Failed() || len(res.HostDiffs) != 0 {
		t.Fatalf("same host: failed %v, host diffs %v", res.Failed(), res.HostDiffs)
	}
	for _, other := range []func(m *Manifest){
		func(m *Manifest) { m.CPU = "Y" },
		func(m *Manifest) { m.NumCPU = 64 },
		func(m *Manifest) { m.GOMAXPROCS = 1 },
		func(m *Manifest) { m.GOARCH = "arm64" },
	} {
		base := syntheticManifest(map[string][2]float64{"p:BenchmarkA": {100, 0.3}})
		other(base)
		res := Compare(base, new)
		if res.Failed() || len(res.HostDiffs) != 1 || len(res.Deltas) != 1 {
			t.Errorf("other host: failed %v, host diffs %v, deltas %v", res.Failed(), res.HostDiffs, res.Deltas)
		}
		var buf bytes.Buffer
		if err := res.Render(&buf); err != nil {
			t.Fatal(err)
		}
		if out := buf.String(); !strings.Contains(out, "timings not gated") || !strings.Contains(out, "p:BenchmarkA") ||
			strings.Contains(out, "REGRESSION") {
			t.Errorf("other-host report:\n%s", out)
		}
		new.Cells = append(new.Cells, Cell{Pkg: "p", Name: "BenchmarkZ"})
		if res := Compare(base, new); !res.Failed() {
			t.Error("coverage not gated across hosts")
		}
		new.Cells = new.Cells[:1]
	}
}

// TestRenderSummaryDigests checks the summary stamps the host and git
// rev and digests every cell as samples, median, quartiles and bound.
func TestRenderSummaryDigests(t *testing.T) {
	m := parseSample(t)
	m.GitRev = "abc123def456"
	var buf bytes.Buffer
	if err := RenderSummary(&buf, m); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"rev=abc123def456", `cpu="Intel(R) Xeon(R) Processor"`, "GOMAXPROCS=2",
		"median", "q1", "q3", "bound", "internal/aspen:BenchmarkAspenEvaluate/fft", "231138.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 2+len(m.Cells) {
		t.Errorf("summary has %d lines, want %d", got, 2+len(m.Cells))
	}
}

// TestCompareRealRunAgainstItself compares a parsed real run with itself:
// zero delta everywhere, so the gate must pass.
func TestCompareRealRunAgainstItself(t *testing.T) {
	m := parseSample(t)
	res := Compare(m, m)
	if res.Failed() || len(res.Deltas) != len(m.Cells) {
		t.Errorf("self-compare not clean: %+v", res)
	}
}
