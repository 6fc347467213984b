package experiments

import (
	"fmt"
	"strings"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
)

// Fig7Series is one ECC mechanism's DVF-vs-degradation curve of Figure 7.
type Fig7Series struct {
	Mechanism dvf.ECC
	Points    []dvf.SweepPoint
}

// Fig7Result is the hardware-protection use case of Section V-B.
type Fig7Result struct {
	Kernel string
	Cache  cache.Config
	Series []Fig7Series
}

// Fig7Degradations returns the paper's 0-30% sweep axis.
func Fig7Degradations() []float64 {
	var d []float64
	for pct := 0.0; pct <= 30; pct++ {
		d = append(d, pct)
	}
	return d
}

// RunFig7 reproduces the ECC trade-off: the vector-multiplication kernel's
// application DVF is swept over performance degradations for SECDED and
// chipkill protection, on the largest Table IV cache (as the paper
// specifies for Section V).
//
// Unlike Figures 4-6 this experiment is purely analytical — one untraced
// kernel run feeds two closed-form sweeps — so there are no cells to fan
// out and env.Workers does not apply. A live env.Metrics times the
// single untraced kernel run ("experiments.kernel_run_ns") and each ECC
// sweep ("experiments.sweep_ns"); a live env.Tracer gets one "fig7" track
// with spans for the kernel run, the DVF aggregation and one "dvf.sweep"
// span per ECC mechanism. The series are identical for every Env.
func RunFig7(env Env) (*Fig7Result, error) {
	cfg := cache.Profile8MB
	k := kernels.NewVM(100000)
	tk := env.Tracer.Track("fig7")
	sw := env.Metrics.Timer("experiments.kernel_run_ns").Start()
	sp := tk.Begin("run")
	info, err := k.Run(nil)
	sw.Stop()
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndInt("refs", info.Refs)
	app, err := profileFromInfo(k, info, cfg, dvf.FITNoECC, dvf.DefaultCostModel, tk)
	if err != nil {
		return nil, err
	}
	// The whole application's exposure: working set bytes and total N_ha.
	var totalBytes int64
	var totalNHa float64
	for _, s := range app.Structures {
		totalBytes += s.Bytes
		totalNHa += s.NHa
	}
	res := &Fig7Result{Kernel: k.Name(), Cache: cfg}
	for _, mech := range []dvf.ECC{dvf.SECDED, dvf.Chipkill} {
		sw := env.Metrics.Timer("experiments.sweep_ns").Start()
		sp := tk.Begin("dvf.sweep " + mech.Name)
		points, err := mech.Sweep(app.ExecHours, totalBytes, totalNHa, Fig7Degradations())
		sp.End()
		sw.Stop()
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, Fig7Series{Mechanism: mech, Points: points})
	}
	return res, nil
}

// Render formats the two Figure 7 curves.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: impact of ECC on DVF (%s, cache %s)\n", r.Kernel, r.Cache.Name)
	fmt.Fprintf(&b, "%12s", "degr%")
	for _, s := range r.Series {
		fmt.Fprintf(&b, " %18s", s.Mechanism.Name)
	}
	fmt.Fprintln(&b)
	for i := range r.Series[0].Points {
		fmt.Fprintf(&b, "%12.0f", r.Series[0].Points[i].DegradationPct)
		for _, s := range r.Series {
			fmt.Fprintf(&b, " %18.6g", s.Points[i].DVF)
		}
		fmt.Fprintln(&b)
	}
	for _, s := range r.Series {
		if best, err := dvf.MinPoint(s.Points); err == nil {
			fmt.Fprintf(&b, "%s: minimum DVF %.6g at %.0f%% degradation\n",
				s.Mechanism.Name, best.DVF, best.DegradationPct)
		}
	}
	return b.String()
}
