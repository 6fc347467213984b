// Command dvf-bench reads `go test -bench` output on standard input,
// writes a schema-versioned run manifest and, with -compare, gates it
// against a baseline. The benchmarks are the repository's own Go
// benchmarks (the suite `make bench-smoke` and `make bench-gate` name);
// per benchmark the manifest keeps the sample count, the median and
// quartiles of ns/op and a regression bound derived from their spread.
//
// Record and gate:
//
//	for i in 1 2 3 4 5 6 7 8 9 10; do go test -run '^$' -bench <suite> ./internal/...; done |
//		dvf-bench -out bench-out -compare testdata/bench_baseline.json
//
// -compare exits 1 when a cell's median exceeds the baseline's by more
// than that cell's stored bound, or when a cell is in only one of the
// two manifests. When the baseline was captured on another host (cpu
// model, CPU count, GOMAXPROCS or platform differ) the timings are
// printed but not gated; coverage still is.
//
// Like every binary in this repository it also takes -metrics and -pprof
// (see internal/obs).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"github.com/resilience-models/dvf/internal/bench"
	"github.com/resilience-models/dvf/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dvf-bench: ")
	outDir := flag.String("out", ".", "directory for the BENCH_<timestamp>.json manifest ('' = don't write)")
	compare := flag.String("compare", "", "baseline manifest to gate against")
	o := obs.AddFlags(nil)
	flag.Parse()
	stop := o.Start()
	failed, err := run(os.Stdin, os.Stdout, *outDir, *compare)
	stop()
	if err != nil {
		log.Fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// run parses the benchmark output in, writes the manifest into outDir
// and reports whether the comparison with the baseline at compare failed.
func run(in io.Reader, out io.Writer, outDir, compare string) (failed bool, err error) {
	m, err := bench.Parse(in)
	if err != nil {
		return false, err
	}
	m.Stamp()
	if err := bench.RenderSummary(out, m); err != nil {
		return false, err
	}
	if outDir != "" {
		path := filepath.Join(outDir, m.Filename())
		if err := writeManifest(path, m); err != nil {
			return false, err
		}
		if _, err := fmt.Fprintf(out, "manifest: %s\n", path); err != nil {
			return false, err
		}
	}
	if compare == "" {
		return false, nil
	}
	base, err := bench.ReadManifestFile(compare)
	if err != nil {
		return false, err
	}
	res := bench.Compare(base, m)
	if err := res.Render(out); err != nil {
		return false, err
	}
	return res.Failed(), nil
}

// writeManifest writes m to path, creating its directory.
func writeManifest(path string, m *bench.Manifest) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
