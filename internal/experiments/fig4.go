// Package experiments contains the harnesses that regenerate every table
// and figure of the DVF paper's evaluation (Sections IV and V): the
// Figure 4 model verification, the Figure 5 DVF profiling, the Figure 6
// CG-vs-PCG use case and the Figure 7 ECC trade-off.
package experiments

import (
	"errors"
	"fmt"
	"strings"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Fig4Row is one bar pair of Figure 4: the analytically estimated and the
// simulated number of main-memory accesses for one data structure of one
// kernel on one cache configuration.
type Fig4Row struct {
	Kernel    string
	Cache     string
	Structure string
	Model     float64 // CGPMAC estimate
	Simulated float64 // cache-simulator misses on the kernel's own trace
}

// ErrorPct returns the signed relative model error in percent.
func (r Fig4Row) ErrorPct() float64 {
	if r.Simulated == 0 {
		if r.Model == 0 {
			return 0
		}
		return 100
	}
	return (r.Model - r.Simulated) / r.Simulated * 100
}

// Fig4Result aggregates the verification experiment.
type Fig4Result struct {
	Rows []Fig4Row
}

// MaxAbsErrorPct returns the largest absolute relative error across rows.
func (res *Fig4Result) MaxAbsErrorPct() float64 {
	var max float64
	for _, r := range res.Rows {
		e := r.ErrorPct()
		if e < 0 {
			e = -e
		}
		if e > max {
			max = e
		}
	}
	return max
}

// replay runs a kernel into sim through its RefConsumer, which stops
// simulating once the kernel's cache state repeats and counts the
// remaining periods (cache.RefConsumer.EndPeriod). A run that leaves
// its loop between period boundaries after the stop (CG's p.q == 0
// exit) fails with trace.ErrPartialPeriod; replay then resets sim and
// runs again with every reference delivered, so the counts are always a
// full replay's.
func replay(sim *cache.Simulator, run func(trace.Consumer) (*kernels.RunInfo, error)) (*kernels.RunInfo, error) {
	info, err := run(sim.Consumer())
	if errors.Is(err, trace.ErrPartialPeriod) {
		sim.Reset()
		full := sim.Consumer()
		info, err = run(trace.ConsumerFunc(full.Access))
	}
	return info, err
}

// VerifyKernel runs one kernel traced through the cache simulator on cfg
// and compares the per-structure CGPMAC estimates against the simulated
// miss counts — the Figure 4 procedure for a single (kernel, cache) cell.
// One cell is one sequential replay, so env.Workers is not used.
//
// The kernel runs through replay, so a kernel that marks period
// boundaries (CG) stops being simulated once its cache state repeats,
// and the remaining periods are counted; the counts equal a full
// replay's.
//
// A live env.Metrics receives the kernel's reference-stream counters
// (trace.Instrumented, references delivered to the simulator), a
// "experiments.kernel_run_ns" timing of the traced run and the cell's
// final cache counters. A live env.Tracer gives the cell its own track
// ("fig4 CG/Verify256KB") carrying a "run" span around the traced kernel
// execution, with the references made ("refs") and those simulated
// ("simulated_refs"), and a "model" span around the estimator
// evaluation, plus the simulator's own track (Simulator.Trace). The rows
// are byte-identical for every Env.
func VerifyKernel(k kernels.Kernel, cfg cache.Config, env Env) ([]Fig4Row, error) {
	sim, err := cache.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	sim.Trace(env.Tracer)
	tk := env.Tracer.Track("fig4 " + k.Name() + "/" + cfg.Name)
	sw := env.Metrics.Timer("experiments.kernel_run_ns").Start()
	sp := tk.Begin("run")
	info, err := replay(sim, func(c trace.Consumer) (*kernels.RunInfo, error) {
		return k.Run(trace.Instrumented(c, env.Metrics, "experiments.trace"))
	})
	sw.Stop()
	defer sim.PublishStats(env.Metrics, "cache."+k.Name()+"."+cfg.Name)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("experiments: running %s: %w", k.Name(), err)
	}
	_, extrapolated := sim.Extrapolated()
	sp.EndArgs(tracez.Arg{Key: "refs", Val: info.Refs}, tracez.Arg{Key: "simulated_refs", Val: info.Refs - extrapolated})
	sp = tk.Begin("model")
	defer sp.End()
	specs, err := k.Models(info)
	if err != nil {
		return nil, fmt.Errorf("experiments: modeling %s: %w", k.Name(), err)
	}
	rows := make([]Fig4Row, 0, len(specs))
	for _, spec := range specs {
		st, err := info.Structure(spec.Structure)
		if err != nil {
			return nil, err
		}
		model, err := spec.Estimator.MemoryAccesses(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", k.Name(), spec.Structure, err)
		}
		rows = append(rows, Fig4Row{
			Kernel:    k.Name(),
			Cache:     cfg.Name,
			Structure: spec.Structure,
			Model:     model,
			Simulated: float64(sim.StructStats(cache.StructID(st.ID)).Misses),
		})
	}
	return rows, nil
}

// RunFig4 executes the full Figure 4 verification: all six kernels at the
// Table V input sizes against both Table IV verification caches. The
// twelve (kernel, cache) cells are independent — each owns its kernel
// instance and simulator — so they run concurrently, env.Workers at a
// time (see Parallel), each through VerifyKernel with the same env.
// Results keep the deterministic cache-major, Table II order and are
// identical for every Env; only wall-clock time changes.
func RunFig4(env Env) (*Fig4Result, error) {
	type cell struct {
		cfg cache.Config
		k   kernels.Kernel
	}
	var cells []cell
	for _, cfg := range cache.VerificationConfigs() {
		for _, k := range kernels.VerificationSuite() {
			cells = append(cells, cell{cfg: cfg, k: k})
		}
	}
	rows := make([][]Fig4Row, len(cells))
	err := Parallel(len(cells), env, func(i int) error {
		var err error
		rows[i], err = VerifyKernel(cells[i].k, cells[i].cfg, env)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	for i := range cells {
		res.Rows = append(res.Rows, rows[i]...)
	}
	return res, nil
}

// Render formats the result as the per-kernel bar groups of Figure 4.
func (res *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: model verification (estimated vs simulated main-memory accesses)\n")
	fmt.Fprintf(&b, "%-4s %-22s %-6s %14s %14s %9s\n",
		"kern", "cache", "struct", "model", "simulated", "error")
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%-4s %-22s %-6s %14.0f %14.0f %+8.1f%%\n",
			r.Kernel, r.Cache, r.Structure, r.Model, r.Simulated, r.ErrorPct())
	}
	fmt.Fprintf(&b, "max |error| = %.1f%% (paper reports <= 15%%)\n", res.MaxAbsErrorPct())
	return b.String()
}
