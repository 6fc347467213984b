// Command dvf-trace captures a kernel's memory-reference trace to disk and
// replays stored traces against arbitrary cache configurations — the
// capture-once / simulate-many workflow the paper uses with its Pin
// traces ("the cache simulation is very time consuming with the memory
// traces of the large input problem sizes").
//
// Capture:
//
//	dvf-trace -record -kernel FT -out ft.trace
//
// Replay:
//
//	dvf-trace -replay ft.trace -cache small
//	dvf-trace -replay ft.trace -all
//
// The trace is a columnar container (internal/trace). Replay memory-maps
// the file (zero-copy on little-endian machines) and presents every
// record to one sequential cache simulator, reference by reference.
//
// Trace-free analysis:
//
//	dvf-trace -engine analytic -kernel CG -cache large
//	dvf-trace -engine analytic -kernel FT -all
//
// The analytic engine skips the trace entirely: it solves the kernel's
// affine access pattern symbolically and prints the same per-structure
// main-memory access table a replay would, in microseconds. It applies to
// the affine Table II kernels (VM, CG, MG, FT); the data-dependent ones
// (NB, MC) need a real trace.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/obs"
	"github.com/resilience-models/dvf/internal/trace"
	"github.com/resilience-models/dvf/internal/tracez"
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
	log.SetPrefix("dvf-trace: ")
	record := flag.Bool("record", false, "record a kernel trace")
	kernel := flag.String("kernel", "VM", "kernel to record (Table II code)")
	out := flag.String("out", "", "output trace file (record mode)")
	replay := flag.String("replay", "", "trace file to replay")
	cacheName := flag.String("cache", "small", "cache to replay against")
	all := flag.Bool("all", false, "replay against every Table IV cache")
	engine := flag.String("engine", "replay", "analysis engine: replay (trace-driven) or analytic (trace-free, affine kernels)")
	o := obs.AddFlags(nil)
	flag.Parse()
	defer o.Start()()

	switch {
	case *engine == "analytic":
		configs := []cache.Config{}
		if *all {
			configs = append(cache.VerificationConfigs(), cache.ProfilingConfigs()...)
		} else {
			cfg, ok := tableIV[strings.ToLower(*cacheName)]
			if !ok {
				log.Fatalf("unknown cache %q", *cacheName)
			}
			configs = append(configs, cfg)
		}
		for _, cfg := range configs {
			if err := doAnalytic(*kernel, cfg); err != nil {
				log.Fatal(err)
			}
		}
	case *engine != "replay":
		log.Fatalf("unknown -engine %q (want replay or analytic)", *engine)
	case *record:
		if *out == "" {
			log.Fatal("-record requires -out")
		}
		if err := doRecord(*kernel, *out, o.Sink(), o.Tracer()); err != nil {
			log.Fatal(err)
		}
	case *replay != "":
		configs := []cache.Config{}
		if *all {
			configs = append(cache.VerificationConfigs(), cache.ProfilingConfigs()...)
		} else {
			cfg, ok := tableIV[strings.ToLower(*cacheName)]
			if !ok {
				log.Fatalf("unknown cache %q", *cacheName)
			}
			configs = append(configs, cfg)
		}
		for _, cfg := range configs {
			if err := doReplay(*replay, cfg, o.Sink(), o.Tracer()); err != nil {
				log.Fatal(err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// doAnalytic solves a kernel's affine access pattern for one cache and
// prints the predicted per-structure main-memory access counts — the
// trace-free counterpart of recording and replaying it.
func doAnalytic(code string, cfg cache.Config) error {
	k, err := kernels.ByName(code)
	if err != nil {
		return err
	}
	d, ok := kernels.Affine(k)
	if !ok {
		return fmt.Errorf("%s has no affine access pattern; record a trace and use -replay", k.Name())
	}
	prof, err := analytic.Solve(d, cfg)
	if err != nil {
		return err
	}
	tol := analytic.Tolerance(k.Name(), cfg)
	fmt.Printf("%s on %s (engine=analytic, tolerance %g)\n", prof.Kernel, prof.Cache, tol)
	fmt.Printf("%-8s %12s %16s\n", "struct", "lines", "mem accesses")
	for _, s := range prof.Structures {
		fmt.Printf("%-8s %12d %16.1f\n", s.Name, s.Lines, s.Misses)
	}
	fmt.Printf("%-8s %12s %16.1f\n", "total", "", prof.TotalMisses())
	return nil
}

func doRecord(code, out string, sink metrics.Sink, tz tracez.Recorder) error {
	k, err := kernels.ByName(code)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}

	// The container header carries the region table, which is only fully
	// known after the run (kernels may allocate auxiliary regions such as
	// CG's q); capture the stream in memory first, then reconstruct the
	// table from the observed ranges and write the file.
	rec := &trace.Recorder{}
	sw := sink.Timer("trace.record_ns").Start()
	ic := trace.Instrumented(rec, sink, "trace.record")
	info, err := kernels.RunTraced(k, ic, tz)
	trace.Flush(ic)
	sw.Stop()
	if err == nil {
		sp := tz.Track("trace.encode").Begin("encode " + out)
		w := trace.NewWriterV2(f, kernelRegistry(info, rec))
		for i, r := range rec.Refs {
			w.Access(r, rec.Owners[i])
		}
		err = w.Flush()
		sp.EndInt("refs", int64(len(rec.Refs)))
	}
	// A failed write-back surfaces at Close; the file is not recorded
	// until it succeeds.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("recorded %s: %d references, %d structures -> %s (v2)\n",
		info.Kernel, len(rec.Refs), len(info.Structures), out)
	return nil
}

// kernelRegistry reconstructs a registry matching the recorded stream: it
// derives each region's span from the recorded references per owner.
func kernelRegistry(info *kernels.RunInfo, rec *trace.Recorder) *trace.Registry {
	// Region IDs in the stream are 1-based allocation order; rebuild with
	// the same bases by scanning the observed address ranges.
	type span struct{ lo, hi uint64 }
	spans := map[int32]*span{}
	for i, r := range rec.Refs {
		o := rec.Owners[i]
		s, ok := spans[o]
		if !ok {
			spans[o] = &span{lo: r.Addr, hi: r.Addr + uint64(r.Size)}
			continue
		}
		if r.Addr < s.lo {
			s.lo = r.Addr
		}
		if end := r.Addr + uint64(r.Size); end > s.hi {
			s.hi = end
		}
	}
	names := map[int32]string{}
	for _, st := range info.Structures {
		names[st.ID] = st.Name
	}
	reg := trace.NewRegistry()
	maxID := int32(0)
	for id := range spans {
		if id > maxID {
			maxID = id
		}
	}
	for id := int32(1); id <= maxID; id++ {
		name := names[id]
		if name == "" {
			name = fmt.Sprintf("aux%d", id)
		}
		s := spans[id]
		if s == nil {
			reg.Alloc(name, 0)
			continue
		}
		reg.Alloc(name, s.hi-s.lo)
	}
	return reg
}

func doReplay(path string, cfg cache.Config, sink metrics.Sink, tz tracez.Recorder) error {
	tf, err := trace.OpenTraceFile(path)
	if err != nil {
		return err
	}
	defer tf.Close()
	sim, err := cache.NewSimulator(cfg)
	if err != nil {
		return err
	}
	sim.Trace(tz)
	sw := sink.Timer("trace.replay_ns").Start()
	sp := tz.Track("trace.replay").Begin("replay " + cfg.Name)
	ic := trace.Instrumented(sim.Consumer(), sink, "trace.replay")
	err = tf.Replay(ic)
	trace.Flush(ic)
	sp.End()
	sw.Stop()
	if err != nil {
		return err
	}
	for _, r := range tf.Regions {
		sim.Label(cache.StructID(r.ID), r.Name)
	}
	sim.PublishStats(sink, "cache.replay")
	fmt.Print(sim.Report())
	return nil
}
