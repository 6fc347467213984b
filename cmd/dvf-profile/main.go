// Command dvf-profile regenerates Figure 5 of the DVF paper: the DVF of
// every major data structure of the six kernels at the Table VI input
// sizes, across the four profiling cache configurations of Table IV.
//
//	-csv    emit machine-readable CSV instead of the table
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
	csvOut := flag.Bool("csv", false, "emit CSV instead of the table")
	workers := flag.Int("workers", 0, "profiling workers (0 = parallel default, 1 = sequential)")
	o := obs.AddFlags(nil)
	flag.Parse()
	defer o.Start()()
	res, err := experiments.RunFig5(experiments.Env{Workers: *workers, Metrics: o.Sink(), Tracer: o.Tracer()})
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
}
