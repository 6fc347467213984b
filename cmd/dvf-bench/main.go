// Command dvf-bench benchmarks the trace→cache→DVF pipeline and writes a
// schema-versioned run manifest, the machine-readable perf trajectory CI
// gates on. Each selected kernel's trace is recorded once with a
// trace.Recorder, then replayed through the cache simulator, one
// Simulator.Access call per reference, on every selected cache; per cell
// the manifest records refs, wall time, ns/ref and the simulation
// counters. Affine kernels also get an "analytic" cell timing the
// trace-free solve.
//
// Benchmark and record:
//
//	dvf-bench                          # full verification suite, BENCH_<ts>.json in .
//	dvf-bench -kernels VM,CG -benchtime 3x -out results/
//
// With -serve the run appends a fifth cell, "serve/loadtest/serve": an
// in-process dvf-serve instance driven over real HTTP by the
// internal/serve/loadtest client fleet, recording sustained
// evaluations-per-wall-time (NsPerRef) and folding the request-latency
// histogram digest into the manifest metrics.
//
// Gate against a baseline:
//
//	dvf-bench -compare testdata/bench_baseline.json               # exit 1 on >20% ns/ref regression
//	dvf-bench -compare old.json -regress-pct 10 -warn-only        # report, never fail
//
// Like every binary in this repository it also takes -metrics and -pprof
// (see internal/obs); the benchmark additionally folds its pipeline
// metrics snapshot into the manifest itself.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/resilience-models/dvf/internal/bench"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/obs"
)

var tableIV = map[string]cache.Config{
	"small": cache.Small,
	"large": cache.Large,
	"16kb":  cache.Profile16KB,
	"128kb": cache.Profile128KB,
	"1mb":   cache.Profile1MB,
	"8mb":   cache.Profile8MB,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dvf-bench: ")
	kernelsFlag := flag.String("kernels", "", "comma-separated Table II codes (default: full verification suite)")
	cachesFlag := flag.String("caches", "", "comma-separated Table IV caches (default: small,large)")
	benchtime := flag.String("benchtime", "1x", "replay iterations per cell, Go-style 'Nx' (best-of)")
	outDir := flag.String("out", ".", "directory for the BENCH_<timestamp>.json manifest ('' = don't write)")
	serveBench := flag.Bool("serve", false, "also benchmark the dvf-serve HTTP hot path (the serve/loadtest/serve cell)")
	serveRequests := flag.Int("serve-requests", 0, "sweep requests for the serve cell (0 = loadtest default)")
	serveClients := flag.Int("serve-clients", 0, "concurrent clients for the serve cell (0 = loadtest default)")
	compare := flag.String("compare", "", "baseline manifest to gate against")
	regressPct := flag.Float64("regress-pct", bench.DefaultRegressPct, "ns/ref regression threshold in percent")
	warnOnly := flag.Bool("warn-only", false, "report regressions but exit 0 (CI cross-machine mode)")
	quiet := flag.Bool("q", false, "suppress per-cell progress output")
	o := obs.AddFlags(nil)
	flag.Parse()
	stop := o.Start()

	iters, err := parseBenchtime(*benchtime)
	if err != nil {
		stop()
		log.Fatal(err)
	}
	configs, err := parseCaches(*cachesFlag)
	if err != nil {
		stop()
		log.Fatal(err)
	}
	opts := bench.Options{
		Kernels: splitList(*kernelsFlag),
		Configs: configs,
		Iters:   iters,
		Sink:    o.Sink(),
	}
	if opts.Sink == nil {
		// The manifest always carries pipeline metrics, -metrics or not.
		opts.Sink = metrics.New()
	}
	if !*quiet {
		opts.Logf = log.Printf
	}

	m, err := bench.Run(opts)
	if err != nil {
		stop()
		log.Fatal(err)
	}
	if *serveBench {
		cell, err := bench.RunServe(bench.ServeOptions{
			Requests: *serveRequests,
			Clients:  *serveClients,
			Sink:     opts.Sink,
			Logf:     opts.Logf,
		})
		if err != nil {
			stop()
			log.Fatal(err)
		}
		m.Cells = append(m.Cells, cell)
		sort.Slice(m.Cells, func(i, j int) bool { return m.Cells[i].Key() < m.Cells[j].Key() })
		// Refold the metrics so the loadtest latency digest
		// (loadtest.request_ns) rides in the manifest.
		m.Metrics = opts.Sink.Snapshot()
	}
	if err := bench.RenderSummary(os.Stdout, m); err != nil {
		stop()
		log.Fatal(err)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			stop()
			log.Fatal(err)
		}
		path := filepath.Join(*outDir, m.Filename())
		f, err := os.Create(path)
		if err != nil {
			stop()
			log.Fatal(err)
		}
		if err := m.WriteJSON(f); err != nil {
			_ = f.Close()
			stop()
			log.Fatal(err)
		}
		// The manifest is the product of the run: a failed close means a
		// possibly truncated file, which must fail loudly, not gate CI on
		// garbage.
		if err := f.Close(); err != nil {
			stop()
			log.Fatal(err)
		}
		fmt.Printf("manifest: %s\n", path)
	}

	exit := 0
	if *compare != "" {
		base, err := bench.ReadManifestFile(*compare)
		if err != nil {
			stop()
			log.Fatal(err)
		}
		res := bench.Compare(base, m, bench.CompareOptions{MaxRegressPct: *regressPct})
		if err := res.Render(os.Stdout); err != nil {
			stop()
			log.Fatal(err)
		}
		if res.Failed() {
			if *warnOnly {
				fmt.Println("warn-only: regressions reported, exit 0")
			} else {
				exit = 1
			}
		}
	}
	stop()
	os.Exit(exit)
}

// parseBenchtime accepts Go benchmark syntax "3x" (or a bare integer) for
// the per-cell iteration count.
func parseBenchtime(s string) (int, error) {
	s = strings.TrimSuffix(strings.TrimSpace(s), "x")
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("invalid -benchtime %q: want e.g. 1x or 5x", s)
	}
	return n, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseCaches(s string) ([]cache.Config, error) {
	var out []cache.Config
	for _, name := range splitList(s) {
		cfg, ok := tableIV[strings.ToLower(name)]
		if !ok {
			return nil, fmt.Errorf("unknown cache %q (want small, large, 16kb, 128kb, 1mb, 8mb)", name)
		}
		out = append(out, cfg)
	}
	return out, nil
}
