package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// baselinePath is the committed baseline the CI bench job gates against.
var baselinePath = filepath.Join("..", "..", "testdata", "bench_baseline.json")

// TestReadManifestFailsClosed pins the hostile-input contract: input past
// the size bound and trailing data after the object are errors, while
// trailing whitespace (what WriteJSON emits) is accepted.
func TestReadManifestFailsClosed(t *testing.T) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(bytes.NewReader(append(raw, " \n\t"...))); err != nil {
		t.Fatalf("baseline with trailing whitespace rejected: %v", err)
	}
	for name, in := range map[string]io.Reader{
		"trailing object": io.MultiReader(bytes.NewReader(raw), strings.NewReader(`{"schema":"dvf-bench/v2"}`)),
		"trailing junk":   io.MultiReader(bytes.NewReader(raw), strings.NewReader("x")),
		"oversized":       io.MultiReader(bytes.NewReader(raw), strings.NewReader(strings.Repeat(" ", maxManifestBytes))),
		"endless string":  io.MultiReader(strings.NewReader(`{"schema":"`), neverEnding('a')),
	} {
		if _, err := ReadManifest(in); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// neverEnding is an infinite stream of one byte.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// FuzzReadManifestCompare feeds arbitrary bytes to ReadManifest and, when
// they decode, compares the result against the committed baseline in both
// directions and renders every report. The invariant is that -compare
// returns an error or a report and never panics, whatever the manifest
// holds. The corpus is seeded from the committed baseline.
func FuzzReadManifestCompare(f *testing.F) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		f.Fatal(err)
	}
	base, err := ReadManifest(bytes.NewReader(raw))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte(`{"schema":"dvf-bench/v2","cpu":"` + base.CPU + `","num_cpu":-1,"cells":[` +
		`{"pkg":"p","name":"BenchmarkA","samples":0,"median_ns":-1,"bound":-5},` +
		`{"pkg":"p","name":"BenchmarkA","median_ns":1e308,"bound":1e308}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, res := range []*CompareResult{Compare(base, m), Compare(m, base), Compare(m, m)} {
			if err := res.Render(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if err := RenderSummary(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzParse feeds arbitrary bytes to the `go test -bench` reader. The
// invariants: Parse returns an error or a manifest and never panics, and
// a manifest has at least one cell, every cell at least one sample and a
// bound within [minBound, maxBound]. Parse's own size limit bounds the
// input (TestParseFailsClosed). The corpus is seeded from the committed
// sample of real output.
func FuzzParse(f *testing.F) {
	raw, err := os.ReadFile(samplePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/3])
	f.Add([]byte("pkg: p\nBenchmarkA-0 \t 1\t 1e308 ns/op\nBenchmarkA-0 \t 9\t 0 ns/op\nBenchmarkB \t 2\t 5e-324 ns/op 3 B/op\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(m.Cells) == 0 {
			t.Fatal("a manifest without cells")
		}
		for _, c := range m.Cells {
			if c.Samples <= 0 || !(c.Bound >= minBound && c.Bound <= maxBound) {
				t.Fatalf("bad cell %+v", c)
			}
		}
		if err := Compare(m, m).Render(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := RenderSummary(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
}
