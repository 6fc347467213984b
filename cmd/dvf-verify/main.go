// Command dvf-verify regenerates Figure 4 of the DVF paper: it runs the six
// verification kernels through the cache simulator and compares the CGPMAC
// analytical estimates against the simulated main-memory access counts.
//
//	-engine E   replay (default) reproduces Figure 4 through the trace
//	            replay pipeline; analytic runs the trace-free analytic
//	            engine's live differential instead — every affine kernel
//	            solved symbolically and checked against the sequential
//	            simulator, exiting nonzero on any tolerance breach
//	-csv        emit machine-readable CSV instead of the table
//	-workers N  how many (kernel, cache) cells run at once: 0 (default)
//	            fans all twelve out concurrently, 1 runs them one after
//	            another with no goroutines, N>1 keeps at most N in
//	            flight. Each cell replays on its own sequential cache
//	            simulator; the output is identical for every setting.
//	-metrics X  dump a pipeline metrics snapshot on exit (internal/obs)
//	-pprof P    write P.cpu.pprof and P.heap.pprof profiles
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/obs"
)

func main() {
	engine := flag.String("engine", "replay", "verification engine: replay or analytic")
	csvOut := flag.Bool("csv", false, "emit CSV instead of the table")
	workers := flag.Int("workers", 0, "cells run at once (0 = all, 1 = one after another)")
	o := obs.AddFlags(nil)
	flag.Parse()
	defer o.Start()()
	env := experiments.Env{Workers: *workers, Metrics: o.Sink(), Tracer: o.Tracer()}
	switch *engine {
	case "replay":
		res, err := experiments.RunFig4(env)
		if err != nil {
			log.Fatal(err)
		}
		if *csvOut {
			if err := res.WriteCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		}
		fmt.Print(res.Render())
	case "analytic":
		res, err := experiments.RunAnalyticDiff(nil, env)
		if err != nil {
			log.Fatal(err)
		}
		if *csvOut {
			if err := res.WriteCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
		} else {
			fmt.Print(res.Render())
		}
		// The live differential is a gate, not just a report: any structure
		// outside the documented tolerance is a hard failure.
		if err := res.Check(); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("dvf-verify: unknown -engine %q (want replay or analytic)", *engine)
	}
}
