// Command dvf-usecase regenerates the two use cases of Section V of the
// DVF paper: the CG-vs-PCG algorithm-optimization study (Figure 6) and the
// ECC protection trade-off (Figure 7).
//
//	-case cgpcg|ecc|all   which use case to run
//	-csv                  emit machine-readable CSV instead of the tables
//	-plot                 draw the figures as ASCII charts
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/obs"
	"github.com/resilience-models/dvf/internal/plot"
)

func main() {
	which := flag.String("case", "all", "use case to run: cgpcg, ecc or all")
	csvOut := flag.Bool("csv", false, "emit CSV instead of the tables")
	plotOut := flag.Bool("plot", false, "draw the figures as ASCII charts")
	o := obs.AddFlags(nil)
	flag.Parse()
	defer o.Start()()
	env := experiments.Env{Metrics: o.Sink(), Tracer: o.Tracer()}
	if *which == "cgpcg" || *which == "all" {
		res, err := experiments.RunFig6(env)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case *csvOut:
			if err := res.WriteCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
		case *plotOut:
			out, err := plotFig6(res)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(out)
		default:
			fmt.Print(res.Render())
		}
	}
	if *which == "ecc" || *which == "all" {
		res, err := experiments.RunFig7(env)
		if err != nil {
			log.Fatal(err)
		}
		switch {
		case *csvOut:
			if err := res.WriteCSV(os.Stdout); err != nil {
				log.Fatal(err)
			}
		case *plotOut:
			out, err := plotFig7(res)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(out)
		default:
			fmt.Print(res.Render())
		}
	}
}

// plotFig6 draws the CG-vs-PCG DVF curves on a log axis, the paper's
// Figure 6 presentation.
func plotFig6(res *experiments.Fig6Result) (string, error) {
	var xs, cg, pcg []float64
	for _, pt := range res.Points {
		xs = append(xs, float64(pt.N))
		cg = append(cg, pt.CGDVF)
		pcg = append(pcg, pt.PCGDVF)
	}
	return plot.Render(plot.Config{
		Title:  "Figure 6: CG vs PCG",
		XLabel: "problem size n",
		YLabel: "DVF (log)",
		LogY:   true,
	},
		plot.Series{Name: "CG", X: xs, Y: cg},
		plot.Series{Name: "PCG", X: xs, Y: pcg},
	)
}

// plotFig7 draws the ECC degradation sweep, one curve per mechanism.
func plotFig7(res *experiments.Fig7Result) (string, error) {
	var series []plot.Series
	for _, s := range res.Series {
		var xs, ys []float64
		for _, pt := range s.Points {
			xs = append(xs, pt.DegradationPct)
			ys = append(ys, pt.DVF)
		}
		series = append(series, plot.Series{Name: s.Mechanism.Name, X: xs, Y: ys})
	}
	return plot.Render(plot.Config{
		Title:  "Figure 7: impact of ECC on DVF",
		XLabel: "performance degradation (%)",
		YLabel: "DVF (log)",
		LogY:   true,
	}, series...)
}
