package experiments

import (
	"fmt"
	"strings"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
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
// out; the drivers' -workers flag does not apply here.
func RunFig7() (*Fig7Result, error) { return RunFig7Sink(nil) }

// RunFig7Sink is RunFig7 with a metrics sink timing the single untraced
// kernel run ("experiments.kernel_run_ns") and the analytical sweep
// ("experiments.task_ns"). The series are identical with or without a sink.
func RunFig7Sink(ms metrics.Sink) (*Fig7Result, error) {
	return RunFig7Obs(ms, nil)
}

// RunFig7Obs is RunFig7Sink with a timeline recorder: the single "fig7"
// track carries spans for the untraced kernel run, the DVF aggregation
// and one "dvf.sweep" span per ECC mechanism. The series are
// byte-identical with or without a recorder.
func RunFig7Obs(ms metrics.Sink, tz tracez.Recorder) (*Fig7Result, error) {
	cfg := cache.Profile8MB
	k := kernels.NewVM(100000)
	tk := tz.Track("fig7")
	sw := ms.Timer("experiments.kernel_run_ns").Start()
	sp := tk.Begin("run")
	info, err := k.Run(nil)
	sw.Stop()
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndInt("refs", info.Refs)
	app, err := profileFromInfoObs(k, info, cfg, dvf.FITNoECC, dvf.DefaultCostModel, tk)
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
		sw := ms.Timer("experiments.task_ns").Start()
		points, err := mech.SweepObs(app.ExecHours, totalBytes, totalNHa, Fig7Degradations(), tk)
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
