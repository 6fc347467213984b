package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunWritesAndGates drives the command on real `go test -bench`
// output: it writes a manifest, passes against that manifest, and fails
// against the committed baseline, whose suite is larger than the sample.
func TestRunWritesAndGates(t *testing.T) {
	sample, err := os.ReadFile(filepath.Join("..", "..", "internal", "bench", "testdata", "gotest-bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if failed, err := run(bytes.NewReader(sample), &out, dir, ""); err != nil || failed {
		t.Fatalf("record: failed %v, err %v", failed, err)
	}
	written, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil || len(written) != 1 {
		t.Fatalf("manifests written: %v (%v)", written, err)
	}
	if failed, err := run(bytes.NewReader(sample), &out, "", written[0]); err != nil || failed {
		t.Fatalf("against its own manifest: failed %v, err %v\n%s", failed, err, out.String())
	}
	out.Reset()
	baseline := filepath.Join("..", "..", "testdata", "bench_baseline.json")
	if failed, err := run(bytes.NewReader(sample), &out, "", baseline); err != nil || !failed {
		t.Fatalf("against the baseline: failed %v, err %v", failed, err)
	}
	if !strings.Contains(out.String(), "MISSING    only in baseline:") {
		t.Errorf("coverage failure not reported:\n%s", out.String())
	}
	if _, err := run(strings.NewReader("PASS\n"), &out, "", ""); err == nil {
		t.Error("input without results accepted")
	}
}
