package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/trace"
)

// Options selects what a benchmark run covers.
type Options struct {
	Kernels []string                         // Table II codes; nil/empty = the full verification suite
	Configs []cache.Config                   // nil/empty = both Table IV verification caches
	Iters   int                              // replay iterations per cell (best-of); <= 0 means 1
	Sink    metrics.Sink                     // pipeline observability; nil disables
	Logf    func(format string, args ...any) // progress output; nil discards
}

// Run records each selected kernel's trace once with a trace.Recorder,
// then replays the reference stream through the cache simulator on every
// selected cache, one Simulator.Access call per reference, timing each
// replay. Affine kernels also get an analytic cell timing the trace-free
// solve.
func Run(o Options) (*Manifest, error) {
	codes := o.Kernels
	if len(codes) == 0 {
		for _, k := range kernels.VerificationSuite() {
			codes = append(codes, k.Name())
		}
	}
	configs := o.Configs
	if len(configs) == 0 {
		configs = cache.VerificationConfigs()
	}
	iters := o.Iters
	if iters <= 0 {
		iters = 1
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	m := NewManifest()
	for _, code := range codes {
		k, err := kernels.ByName(code)
		if err != nil {
			return nil, err
		}
		rec := &trace.Recorder{}
		sw := o.Sink.Timer("bench.record_ns").Start()
		if _, err := k.Run(trace.Instrumented(rec, o.Sink, "bench.record")); err != nil {
			return nil, fmt.Errorf("bench: recording %s: %w", code, err)
		}
		sw.Stop()
		o.Sink.SampleMem()
		logf("%s: recorded %d references", code, rec.Len())

		for _, cfg := range configs {
			seq, err := replayCell(k.Name(), cfg, rec, iters, o.Sink)
			if err != nil {
				return nil, err
			}
			m.Cells = append(m.Cells, seq)
			logf("%s on %-22s sequential %8.2f ns/ref", code, cfg.Name, seq.NsPerRef)
			// Second cell: the trace-free analytic engine, where the kernel's
			// affine structure admits one. It predicts miss counts within a
			// documented tolerance instead of replaying, and its Stats stay
			// zero so nobody mistakes the prediction for replay counters.
			if d, ok := kernels.Affine(k); ok {
				an, err := analyticCell(code, cfg, d, int64(rec.Len()), iters)
				if err != nil {
					return nil, err
				}
				m.Cells = append(m.Cells, an)
				speed := 0.0
				if an.WallNs > 0 {
					speed = float64(seq.WallNs) / float64(an.WallNs)
				}
				mark := ""
				if speed < analyticTarget {
					mark = ", below 10x target"
				}
				logf("%s on %-22s analytic %s per solve (%.0fx vs sequential replay%s)",
					code, cfg.Name, time.Duration(an.WallNs).Round(time.Microsecond), speed, mark)
			}
		}
	}
	o.Sink.SampleMem()
	m.Metrics = o.Sink.Snapshot()
	// Encode in key order, not enumeration order: -kernels/-caches
	// selections then produce comparable manifests regardless of how the
	// caller spelled the selection.
	sort.Slice(m.Cells, func(i, j int) bool { return m.Cells[i].Key() < m.Cells[j].Key() })
	return m, nil
}

// analyticTarget is the speed-up over sequential replay an analytic
// solve is meant to reach; cells below it are labelled in the log.
const analyticTarget = 10

// replayCell replays one recorded stream through a fresh cache simulator
// iters times and keeps the best wall time.
func replayCell(kernel string, cfg cache.Config, rec *trace.Recorder, iters int, sink metrics.Sink) (Cell, error) {
	cell := Cell{
		Kernel:  kernel,
		Cache:   cfg.Name,
		Engine:  "sequential",
		Workers: 1,
		Iters:   iters,
		Refs:    int64(rec.Len()),
	}
	for it := 0; it < iters; it++ {
		sim, err := cache.NewSimulator(cfg)
		if err != nil {
			return Cell{}, err
		}
		t0 := time.Now()
		owners := rec.Owners[:len(rec.Refs)]
		for i, r := range rec.Refs {
			sim.Access(r.Addr, r.Size, r.Write, cache.StructID(owners[i]))
		}
		wall := time.Since(t0).Nanoseconds()
		if it == 0 || wall < cell.WallNs {
			cell.WallNs = wall
		}
		cell.Stats = sim.TotalStats()
	}
	if cell.Refs > 0 {
		cell.NsPerRef = float64(cell.WallNs) / float64(cell.Refs)
	}
	sink.Counter("bench.replayed_refs").Add(cell.Refs * int64(iters))
	return cell, nil
}

// analyticCell times the trace-free analytic solve for one affine kernel
// on one cache, best of iters. Refs carries the recorded reference count
// the solve replaces, so NsPerRef is directly comparable with the replay
// cells; WallNs is the cost of one whole solve, microseconds
// where a replay takes milliseconds.
func analyticCell(kernel string, cfg cache.Config, d *analytic.Descriptor, refs int64, iters int) (Cell, error) {
	cell := Cell{
		Kernel:  kernel,
		Cache:   cfg.Name,
		Engine:  "analytic",
		Workers: 1,
		Iters:   iters,
		Refs:    refs,
	}
	for it := 0; it < iters; it++ {
		t0 := time.Now()
		if _, err := analytic.Solve(d, cfg); err != nil {
			return Cell{}, err
		}
		wall := time.Since(t0).Nanoseconds()
		if it == 0 || wall < cell.WallNs {
			cell.WallNs = wall
		}
	}
	if cell.Refs > 0 {
		cell.NsPerRef = float64(cell.WallNs) / float64(cell.Refs)
	}
	return cell, nil
}

// RenderSummary writes the human-readable table for a manifest. The
// first write error is returned; later lines are skipped.
func RenderSummary(w io.Writer, m *Manifest) error {
	ew := &errWriter{w: w}
	rev := ""
	if m.GitRev != "" {
		rev = "  rev=" + m.GitRev
	}
	ew.printf("dvf-bench %s  %s %s/%s  GOMAXPROCS=%d%s\n",
		m.Timestamp, m.GoVersion, m.GOOS, m.GOARCH, m.GOMAXPROCS, rev)
	ew.printf("%-6s %-22s %-10s %8s %12s %12s %10s\n",
		"kernel", "cache", "engine", "workers", "refs", "wall", "ns/ref")
	for _, c := range m.Cells {
		ew.printf("%-6s %-22s %-10s %8d %12d %12s %10.2f\n",
			c.Kernel, c.Cache, c.Engine, c.Workers, c.Refs,
			time.Duration(c.WallNs).Round(time.Microsecond), c.NsPerRef)
	}
	for _, name := range sortedKeys(m.Metrics.Histograms) {
		h := m.Metrics.Histograms[name]
		if h.Count == 0 {
			continue
		}
		// Recompute from the buckets rather than trusting the encoded
		// fields: manifests written before the quantile fields existed
		// still render correctly.
		p50, p90, p99 := h.Quantiles()
		ew.printf("latency %-32s count=%d p50<=%d p90<=%d p99<=%d max=%d\n",
			name, h.Count, p50, p90, p99, h.Max)
	}
	return ew.err
}

// sortedKeys orders map keys so reports render deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errWriter is the shared sticky-error formatter for the package's
// report renderers: the first failed write latches, later writes no-op.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
