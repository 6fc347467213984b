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
		"trailing object": io.MultiReader(bytes.NewReader(raw), strings.NewReader(`{"schema":"dvf-bench/v1"}`)),
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
	f.Add([]byte(`{"schema":"dvf-bench/v1","cells":[{"kernel":"VM","cache":"Verify32KB","engine":"sequential","ns_per_ref":-1}],` +
		`"metrics":{"histograms":{"h":{"count":-5,"buckets":{"-1":3,"99":-7}}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, res := range []*CompareResult{
			Compare(base, m, CompareOptions{}),
			Compare(m, base, CompareOptions{MaxRegressPct: -1}),
			Compare(m, m, CompareOptions{}),
		} {
			if err := res.Render(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if err := RenderSummary(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	})
}
