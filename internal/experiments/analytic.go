package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
)

// The analytic engine (engine=analytic) derives a kernel's per-structure
// main-memory access counts symbolically from its affine loop structure
// (internal/analytic) instead of replaying a reference trace through the
// cache simulator. This file wires it into the figure drivers:
//
//   - RunAnalyticDiff is the engine's live differential — analytic vs
//     the sequential simulator, checked against the documented tolerance
//     contract (dvf-verify -engine analytic, make analytic-smoke);
//   - RunFig4Analytic regenerates Figure 4's affine subset with the
//     simulated column produced by the analytic engine;
//   - ProfileKernelAnalytic / RunFig5Analytic profile DVF with analytic
//     N_ha (Figure 5's affine subset);
//   - RunFig6Analytic replays the CG-vs-PCG use case with the CG side
//     solved analytically (PCG's convergence-bounded recurrence has no
//     static access pattern and stays on the CGPMAC estimators).

// AnalyticRow is one structure of the analytic-vs-simulated differential:
// the trace-free analytic miss count against the sequential simulator's,
// with the documented tolerance the pair must satisfy.
type AnalyticRow struct {
	Kernel    string
	Cache     string
	Structure string
	Analytic  float64
	Simulated float64
	Lines     int64   // compulsory line footprint on this geometry
	Tolerance float64 // documented bound (analytic.Tolerance)
}

// ErrorPct returns the signed relative error of the analytic engine in
// percent.
func (r AnalyticRow) ErrorPct() float64 {
	if r.Simulated == 0 {
		if r.Analytic == 0 {
			return 0
		}
		return 100
	}
	return (r.Analytic - r.Simulated) / r.Simulated * 100
}

// Within reports whether the row satisfies the accuracy contract:
// |analytic - simulated| <= tolerance * max(simulated, lines).
func (r AnalyticRow) Within() bool {
	bound := r.Tolerance * r.Simulated
	if b := r.Tolerance * float64(r.Lines); b > bound {
		bound = b
	}
	diff := r.Analytic - r.Simulated
	if diff < 0 {
		diff = -diff
	}
	return diff <= bound
}

// AnalyticCell records the per-(kernel, cache) cost asymmetry the engine
// exists for: the analytic solve against the traced simulator replay that
// verified it.
type AnalyticCell struct {
	Kernel   string
	Cache    string
	Refs     int64 // references the simulator consumed
	SolveNs  int64 // analytic solve wall time
	ReplayNs int64 // traced sequential simulation wall time
}

// AnalyticResult is the full differential sweep.
type AnalyticResult struct {
	Rows  []AnalyticRow
	Cells []AnalyticCell
}

// Check returns an error describing every row that violates the accuracy
// contract, or nil when the whole sweep is within tolerance.
func (res *AnalyticResult) Check() error {
	var bad []string
	for _, r := range res.Rows {
		if !r.Within() {
			bad = append(bad, fmt.Sprintf("%s/%s/%s: analytic %.3f vs simulated %.0f (err %+.2f%%, tol %g)",
				r.Kernel, r.Cache, r.Structure, r.Analytic, r.Simulated, r.ErrorPct(), r.Tolerance))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("experiments: analytic engine out of tolerance:\n  %s",
			strings.Join(bad, "\n  "))
	}
	return nil
}

// Render formats the live differential, one row per structure plus a
// per-cell cost line.
func (res *AnalyticResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=analytic differential (trace-free solve vs sequential simulator)\n")
	fmt.Fprintf(&b, "%-4s %-22s %-6s %14s %14s %9s %7s %4s\n",
		"kern", "cache", "struct", "analytic", "simulated", "error", "tol", "ok")
	for _, r := range res.Rows {
		ok := "ok"
		if !r.Within() {
			ok = "FAIL"
		}
		fmt.Fprintf(&b, "%-4s %-22s %-6s %14.1f %14.0f %+8.3f%% %7g %4s\n",
			r.Kernel, r.Cache, r.Structure, r.Analytic, r.Simulated, r.ErrorPct(), r.Tolerance, ok)
	}
	for _, c := range res.Cells {
		speedup := 0.0
		if c.SolveNs > 0 {
			speedup = float64(c.ReplayNs) / float64(c.SolveNs)
		}
		fmt.Fprintf(&b, "cost %-4s %-22s solve %10s   replay %12s (%d refs)   %8.0fx\n",
			c.Kernel, c.Cache,
			time.Duration(c.SolveNs).Round(time.Microsecond),
			time.Duration(c.ReplayNs).Round(time.Microsecond),
			c.Refs, speedup)
	}
	return b.String()
}

// affineSubset returns the kernels of suite the analytic engine applies
// to (the four affine Table II kernels).
func affineSubset(suite []kernels.Kernel) []kernels.Kernel {
	var out []kernels.Kernel
	for _, k := range suite {
		if _, ok := kernels.Affine(k); ok {
			out = append(out, k)
		}
	}
	return out
}

// VerifyKernelAnalytic runs the analytic engine and the sequential
// simulator for one (kernel, cache) cell and returns the per-structure
// differential rows plus the cell's cost record.
func VerifyKernelAnalytic(k kernels.Kernel, cfg cache.Config) ([]AnalyticRow, AnalyticCell, error) {
	d, ok := kernels.Affine(k)
	if !ok {
		return nil, AnalyticCell{}, fmt.Errorf(
			"experiments: %s has no affine access pattern (engine=analytic needs one)", k.Name())
	}
	//dvf:allow determinism the solve/replay wall times are cost telemetry for the Render footer only; WriteCSV and the golden files exclude them, so no deterministic output depends on the clock
	t0 := time.Now()
	prof, err := analytic.Solve(d, cfg)
	solveNs := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, AnalyticCell{}, err
	}
	sim, err := cache.NewSimulator(cfg)
	if err != nil {
		return nil, AnalyticCell{}, err
	}
	//dvf:allow determinism same cost-telemetry argument as the solve timer above
	t0 = time.Now()
	info, err := replay(sim, k.Run)
	replayNs := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, AnalyticCell{}, fmt.Errorf("experiments: running %s: %w", k.Name(), err)
	}
	tol := analytic.Tolerance(k.Name(), cfg)
	rows := make([]AnalyticRow, 0, len(info.Structures))
	for _, st := range info.Structures {
		model, err := prof.Misses(st.Name)
		if err != nil {
			return nil, AnalyticCell{}, err
		}
		rows = append(rows, AnalyticRow{
			Kernel:    k.Name(),
			Cache:     cfg.Name,
			Structure: st.Name,
			Analytic:  model,
			Simulated: float64(sim.StructStats(cache.StructID(st.ID)).Misses),
			Lines:     (st.Bytes + int64(cfg.LineSize) - 1) / int64(cfg.LineSize),
			Tolerance: tol,
		})
	}
	cell := AnalyticCell{
		Kernel: k.Name(), Cache: cfg.Name,
		Refs: info.Refs, SolveNs: solveNs, ReplayNs: replayNs,
	}
	return rows, cell, nil
}

// RunAnalyticDiff runs the analytic-vs-simulated differential for every
// affine verification kernel on the given caches (nil = the Table IV
// verification pair). The cells are independent and fan out like the
// other figure drivers, env.Workers at a time (see Parallel); rows keep
// cache-major, Table II order.
func RunAnalyticDiff(configs []cache.Config, env Env) (*AnalyticResult, error) {
	if len(configs) == 0 {
		configs = cache.VerificationConfigs()
	}
	type cellIn struct {
		cfg cache.Config
		k   kernels.Kernel
	}
	var cells []cellIn
	for _, cfg := range configs {
		for _, k := range affineSubset(kernels.VerificationSuite()) {
			cells = append(cells, cellIn{cfg: cfg, k: k})
		}
	}
	rows := make([][]AnalyticRow, len(cells))
	costs := make([]AnalyticCell, len(cells))
	err := Parallel(len(cells), env, func(i int) error {
		var err error
		rows[i], costs[i], err = VerifyKernelAnalytic(cells[i].k, cells[i].cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &AnalyticResult{Cells: costs}
	for i := range cells {
		res.Rows = append(res.Rows, rows[i]...)
	}
	return res, nil
}

// RunFig4Analytic regenerates the affine subset of Figure 4 with the
// simulated column produced by the analytic engine instead of a traced
// replay: Model stays the CGPMAC estimate, Simulated becomes the
// trace-free analytic miss count. Within the engine's tolerance contract
// the rows match the replay-backed figure.
func RunFig4Analytic() (*Fig4Result, error) {
	res := &Fig4Result{}
	for _, cfg := range cache.VerificationConfigs() {
		for _, k := range affineSubset(kernels.VerificationSuite()) {
			rows, err := verifyKernelFig4Analytic(k, cfg)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, rows...)
		}
	}
	return res, nil
}

// verifyKernelFig4Analytic builds Figure 4 rows for one cell with the
// analytic engine on the simulated side.
func verifyKernelFig4Analytic(k kernels.Kernel, cfg cache.Config) ([]Fig4Row, error) {
	d, ok := kernels.Affine(k)
	if !ok {
		return nil, fmt.Errorf(
			"experiments: %s has no affine access pattern (engine=analytic needs one)", k.Name())
	}
	prof, err := analytic.Solve(d, cfg)
	if err != nil {
		return nil, err
	}
	info, err := RunUntraced(k)
	if err != nil {
		return nil, err
	}
	specs, err := k.Models(info)
	if err != nil {
		return nil, fmt.Errorf("experiments: modeling %s: %w", k.Name(), err)
	}
	rows := make([]Fig4Row, 0, len(specs))
	for _, spec := range specs {
		model, err := spec.Estimator.MemoryAccesses(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s: %w", k.Name(), spec.Structure, err)
		}
		simulated, err := prof.Misses(spec.Structure)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4Row{
			Kernel:    k.Name(),
			Cache:     cfg.Name,
			Structure: spec.Structure,
			Model:     model,
			Simulated: simulated,
		})
	}
	return rows, nil
}

// ProfileKernelAnalytic is ProfileKernel with the per-structure N_ha
// produced by the analytic engine instead of the CGPMAC estimators: the
// prior untraced run supplies the workload counts for the cost model, the
// symbolic solve provides the miss counts, and Equation 1 does the rest.
func ProfileKernelAnalytic(k kernels.Kernel, info *kernels.RunInfo, cfg cache.Config, rate dvf.FIT, cost dvf.CostModel) (*dvf.Application, error) {
	d, ok := kernels.Affine(k)
	if !ok {
		return nil, fmt.Errorf(
			"experiments: %s has no affine access pattern (engine=analytic needs one)", k.Name())
	}
	return analyticApplication(k.Name(), info, d, cfg, rate, cost)
}

// analyticApplication aggregates an analytic solve into a DVF report,
// using a prior (untraced) run's workload counts for the cost model.
func analyticApplication(name string, info *kernels.RunInfo, d *analytic.Descriptor, cfg cache.Config, rate dvf.FIT, cost dvf.CostModel) (*dvf.Application, error) {
	prof, err := analytic.Solve(d, cfg)
	if err != nil {
		return nil, err
	}
	var (
		names []string
		sizes []int64
		nhas  []float64
		total float64
	)
	for _, st := range info.Structures {
		nha, err := prof.Misses(st.Name)
		if err != nil {
			return nil, err
		}
		names = append(names, st.Name)
		sizes = append(sizes, st.Bytes)
		nhas = append(nhas, nha)
		total += nha
	}
	hours := cost.ExecHours(info.Refs, total, float64(info.Flops))
	return dvf.NewApplication(name, rate, hours, names, sizes, nhas)
}

// RunFig5Analytic regenerates the affine subset of Figure 5 with analytic
// N_ha: the four affine kernels at the Table VI input sizes across the
// four profiling caches.
func RunFig5Analytic() (*Fig5Result, error) {
	res := &Fig5Result{Rate: dvf.FITNoECC}
	for _, k := range affineSubset(kernels.ProfilingSuite()) {
		info, err := RunUntraced(k)
		if err != nil {
			return nil, err
		}
		d, _ := kernels.Affine(k)
		for _, cfg := range cache.ProfilingConfigs() {
			app, err := analyticApplication(k.Name(), info, d, cfg, res.Rate, dvf.DefaultCostModel)
			if err != nil {
				return nil, err
			}
			for _, s := range app.Structures {
				res.Cells = append(res.Cells, Fig5Cell{
					Kernel: k.Name(), Cache: cfg.Name, Structure: s.Name, DVF: s.DVF,
				})
			}
			res.Cells = append(res.Cells, Fig5Cell{
				Kernel: k.Name(), Cache: cfg.Name, Structure: "DVF_a", DVF: app.Total(),
			})
		}
	}
	return res, nil
}

// RunFig6Analytic replays the Figure 6 use case with the CG side solved
// by the analytic engine: each problem size still runs CG to convergence
// once (untraced) to learn its iteration count and workload, then a
// fixed-iteration CG descriptor is solved symbolically for the N_ha. PCG
// terminates on a convergence test over a preconditioned recurrence —
// there is no static affine pattern to solve — so its side keeps the
// CGPMAC estimators, exactly like RunFig6.
func RunFig6Analytic() (*Fig6Result, error) {
	res := &Fig6Result{Cache: cache.Profile8MB, Rate: dvf.FITNoECC, Tol: 1e-8}
	for _, n := range Fig6Sizes() {
		p, err := runFig6PointAnalytic(n, res.Tol, res.Cache, res.Rate)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *p)
	}
	return res, nil
}

func runFig6PointAnalytic(n int, tol float64, cfg cache.Config, rate dvf.FIT) (*Fig6Point, error) {
	cg := kernels.NewCGToConvergence(n, tol)
	cgInfo, err := cg.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: cg n=%d: %w", n, err)
	}
	iters := int(cgInfo.Measured["iters"])
	fixed := kernels.NewCG(n, iters)
	d, ok := kernels.Affine(fixed)
	if !ok {
		return nil, fmt.Errorf("experiments: fixed-iteration CG n=%d lost its access pattern", n)
	}
	cgApp, err := analyticApplication(cg.Name(), cgInfo, d, cfg, rate, dvf.DefaultCostModel)
	if err != nil {
		return nil, err
	}
	pcg := kernels.NewPCGToConvergence(n, tol)
	pcgInfo, err := pcg.Run(nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: pcg n=%d: %w", n, err)
	}
	pcgApp, err := profileFromInfo(pcg, pcgInfo, cfg, rate, dvf.DefaultCostModel, nil)
	if err != nil {
		return nil, err
	}
	return &Fig6Point{
		N:        n,
		CGIters:  iters,
		PCGIters: int(pcgInfo.Measured["iters"]),
		CGDVF:    cgApp.Total(),
		PCGDVF:   pcgApp.Total(),
		CGHours:  cgApp.ExecHours,
		PCGHours: pcgApp.ExecHours,
	}, nil
}
