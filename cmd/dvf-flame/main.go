// Command dvf-flame folds a Chrome trace-event JSON file — as written by
// any dvf binary's -trace-out flag — into a terminal report: per-phase
// self/total time across every track, the counter tracks present, and
// the top-N individual spans by duration. It answers "where did the run
// spend its time, and which driver stalled" without opening a
// trace UI.
//
//	dvf-flame run.json             fold and report
//	dvf-flame -top 30 run.json     widen the span listing
//	dvf-flame -check run.json      validate only (exit non-zero on a
//	                               malformed trace); used by CI
//	dvf-flame -                    read the trace from stdin
//
// Like every binary in this repository it also takes the standard
// -metrics, -pprof, -pprof-http and -trace-out flags (internal/obs) —
// yes, dvf-flame can emit a trace of itself folding a trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/resilience-models/dvf/internal/obs"
	"github.com/resilience-models/dvf/internal/tracez"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dvf-flame: ")
	topN := flag.Int("top", 15, "number of individual spans to list (0 suppresses the listing)")
	check := flag.Bool("check", false, "validate the trace against the tracez schema and exit")
	o := obs.AddFlags(nil)
	flag.Parse()
	defer o.Start()()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dvf-flame [-top N] [-check] <trace.json | ->")
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	name := flag.Arg(0)
	if name != "-" {
		f, err := os.Open(name)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	events, err := tracez.ValidateReader(in)
	if err != nil {
		log.Fatal(err)
	}
	if *check {
		fmt.Printf("%s: valid trace, %d events\n", name, len(events))
		return
	}
	if err := tracez.Fold(events).Render(os.Stdout, *topN); err != nil {
		log.Fatal(err)
	}
}
