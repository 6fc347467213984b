package experiments

import (
	"fmt"
	"strings"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Fig5Cell is one bar of Figure 5: the DVF of one data structure of one
// kernel under one cache configuration (plus the per-kernel DVF_a bars the
// figure shows alongside).
type Fig5Cell struct {
	Kernel    string
	Cache     string
	Structure string // "DVF_a" for the application aggregate
	DVF       float64
}

// Fig5Result holds the full profiling sweep.
type Fig5Result struct {
	Rate  dvf.FIT
	Cells []Fig5Cell
}

// Lookup returns the DVF for (kernel, cache, structure).
func (r *Fig5Result) Lookup(kernel, cacheName, structure string) (float64, error) {
	for _, c := range r.Cells {
		if c.Kernel == kernel && c.Cache == cacheName && c.Structure == structure {
			return c.DVF, nil
		}
	}
	return 0, fmt.Errorf("experiments: no cell %s/%s/%s", kernel, cacheName, structure)
}

// RunUntraced runs the kernel once without a trace sink: the workload
// counts and profiled model inputs that ProfileKernel and
// ProfileKernelAnalytic take. They depend on neither the cache nor the
// failure rate, so one run serves every analysis of the kernel.
func RunUntraced(k kernels.Kernel) (*kernels.RunInfo, error) {
	info, err := k.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", k.Name(), err)
	}
	return info, nil
}

// ProfileKernel computes the DVF of every major structure of one kernel on
// one cache configuration from a prior untraced run of it (RunUntraced):
// the CGPMAC models estimate per-structure N_ha from the run's profiled
// inputs, the cost model turns its workload into T, and Equation 1 does
// the rest. info is only read, so callers may share one run between
// concurrent calls.
func ProfileKernel(k kernels.Kernel, info *kernels.RunInfo, cfg cache.Config, rate dvf.FIT, cost dvf.CostModel) (*dvf.Application, error) {
	return profileFromInfo(k, info, cfg, rate, cost, nil)
}

// profileFromInfo evaluates the models of a prior run against cfg, with
// the final DVF aggregation recorded as a "dvf.aggregate" span on tk (nil
// is a no-op) — the per-cell track of the calling driver, so model
// evaluation and aggregation nest visibly.
func profileFromInfo(k kernels.Kernel, info *kernels.RunInfo, cfg cache.Config, rate dvf.FIT, cost dvf.CostModel, tk *tracez.Track) (*dvf.Application, error) {
	specs, err := k.Models(info)
	if err != nil {
		return nil, fmt.Errorf("experiments: modeling %s: %w", k.Name(), err)
	}
	var (
		names []string
		sizes []int64
		nhas  []float64
		total float64
	)
	for _, spec := range specs {
		st, err := info.Structure(spec.Structure)
		if err != nil {
			return nil, err
		}
		nha, err := spec.Estimator.MemoryAccesses(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s on %s: %w",
				k.Name(), spec.Structure, cfg.Name, err)
		}
		names = append(names, spec.Structure)
		sizes = append(sizes, st.Bytes)
		nhas = append(nhas, nha)
		total += nha
	}
	hours := cost.ExecHours(info.Refs, total, float64(info.Flops))
	sp := tk.Begin("dvf.aggregate " + k.Name())
	defer sp.End()
	return dvf.NewApplication(k.Name(), rate, hours, names, sizes, nhas)
}

// RunFig5 executes the full Figure 5 profiling: the six kernels at the
// Table VI input sizes across the four profiling caches of Table IV, with
// the unprotected FIT rate of Table VII. Kernels profile concurrently,
// env.Workers at a time (each owns its state); cells keep the Table II,
// capacity-ascending order and are identical for every Env. A live
// env.Metrics adds per-kernel task wall times and untraced kernel-run
// timings under "experiments.kernel_run_ns"; a live env.Tracer gives
// each kernel's profiling task its own track ("fig5 CG") with a span for
// the untraced run and one per evaluated cache.
func RunFig5(env Env) (*Fig5Result, error) {
	res := &Fig5Result{Rate: dvf.FITNoECC}
	suite := kernels.ProfilingSuite()
	cells := make([][]Fig5Cell, len(suite))
	err := Parallel(len(suite), env, func(i int) error {
		var err error
		cells[i], err = profileAllCaches(suite[i], res.Rate, env)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range suite {
		res.Cells = append(res.Cells, cells[i]...)
	}
	return res, nil
}

// profileAllCaches runs one kernel once and evaluates its models against
// every profiling cache.
func profileAllCaches(k kernels.Kernel, rate dvf.FIT, env Env) ([]Fig5Cell, error) {
	tk := env.Tracer.Track("fig5 " + k.Name())
	sw := env.Metrics.Timer("experiments.kernel_run_ns").Start()
	sp := tk.Begin("run")
	info, err := k.Run(nil)
	sw.Stop()
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndInt("refs", info.Refs)
	var out []Fig5Cell
	for _, cfg := range cache.ProfilingConfigs() {
		sp := tk.Begin("profile " + cfg.Name)
		app, err := profileFromInfo(k, info, cfg, rate, dvf.DefaultCostModel, tk)
		sp.End()
		if err != nil {
			return nil, err
		}
		for _, s := range app.Structures {
			out = append(out, Fig5Cell{
				Kernel: k.Name(), Cache: cfg.Name, Structure: s.Name, DVF: s.DVF,
			})
		}
		out = append(out, Fig5Cell{
			Kernel: k.Name(), Cache: cfg.Name, Structure: "DVF_a", DVF: app.Total(),
		})
	}
	return out, nil
}

// Render formats the profiling results as the six bar groups of Figure 5.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: DVF profiling (FIT=%g)\n", float64(r.Rate))
	fmt.Fprintf(&b, "%-4s %-22s %-7s %14s\n", "kern", "cache", "struct", "DVF")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-4s %-22s %-7s %14.6g\n", c.Kernel, c.Cache, c.Structure, c.DVF)
	}
	return b.String()
}
