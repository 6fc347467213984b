package experiments

import (
	"fmt"
	"strings"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Fig6Point is one problem size of the CG-vs-PCG comparison (Figure 6):
// each algorithm's application DVF plus the convergence behaviour that
// drives the trade-off.
type Fig6Point struct {
	N        int
	CGIters  int
	PCGIters int
	CGDVF    float64
	PCGDVF   float64
	CGHours  float64
	PCGHours float64
}

// Fig6Result is the sweep over problem sizes.
type Fig6Result struct {
	Cache  cache.Config
	Rate   dvf.FIT
	Tol    float64
	Points []Fig6Point
}

// Fig6Sizes returns the paper's problem-size axis (100..800).
func Fig6Sizes() []int {
	return []int{100, 200, 300, 400, 500, 600, 700, 800}
}

// RunFig6 reproduces the algorithm-optimization use case of Section V-A:
// CG and PCG are solved to the same tolerance at each problem size, their
// per-structure memory accesses modeled, and the application DVFs compared
// on the largest cache of Table IV (as the paper specifies).
//
// The trade-off is structural: PCG doubles the matrix working set (A plus
// the dense preconditioner M) and roughly doubles the per-iteration memory
// traffic, but converges in a handful of iterations while CG's iteration
// count grows with the problem's condition number — so PCG's DVF starts
// slightly worse and crosses below CG's as n grows.
//
// The problem sizes solve concurrently, env.Workers at a time; the points
// are identical for every Env. A live env.Metrics adds per-problem-size
// task wall times; a live env.Tracer gives each problem size its own
// track ("fig6 n=400") with "cg" and "pcg" spans carrying the iteration
// counts as args.
func RunFig6(env Env) (*Fig6Result, error) {
	res := &Fig6Result{Cache: cache.Profile8MB, Rate: dvf.FITNoECC, Tol: 1e-8}
	sizes := Fig6Sizes()
	points := make([]*Fig6Point, len(sizes))
	err := Parallel(len(sizes), env, func(i int) error {
		var err error
		points[i], err = runFig6Point(sizes[i], res.Tol, res.Cache, res.Rate, env.Tracer)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range sizes {
		res.Points = append(res.Points, *points[i])
	}
	return res, nil
}

func runFig6Point(n int, tol float64, cfg cache.Config, rate dvf.FIT, tz tracez.Recorder) (*Fig6Point, error) {
	tk := tz.Track(fmt.Sprintf("fig6 n=%d", n))
	cg := kernels.NewCGToConvergence(n, tol)
	sp := tk.Begin("cg")
	cgInfo, err := cg.Run(nil)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("experiments: cg n=%d: %w", n, err)
	}
	sp.EndInt("iters", int64(cgInfo.Measured["iters"]))
	cgApp, err := profileFromInfo(cg, cgInfo, cfg, rate, dvf.DefaultCostModel, tk)
	if err != nil {
		return nil, err
	}
	pcg := kernels.NewPCGToConvergence(n, tol)
	sp = tk.Begin("pcg")
	pcgInfo, err := pcg.Run(nil)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("experiments: pcg n=%d: %w", n, err)
	}
	sp.EndInt("iters", int64(pcgInfo.Measured["iters"]))
	pcgApp, err := profileFromInfo(pcg, pcgInfo, cfg, rate, dvf.DefaultCostModel, tk)
	if err != nil {
		return nil, err
	}
	return &Fig6Point{
		N:        n,
		CGIters:  int(cgInfo.Measured["iters"]),
		PCGIters: int(pcgInfo.Measured["iters"]),
		CGDVF:    cgApp.Total(),
		PCGDVF:   pcgApp.Total(),
		CGHours:  cgApp.ExecHours,
		PCGHours: pcgApp.ExecHours,
	}, nil
}

// CrossoverSize returns the first problem size at which PCG's DVF drops
// below CG's, or 0 when no crossover occurs in the sweep.
func (r *Fig6Result) CrossoverSize() int {
	for _, p := range r.Points {
		if p.PCGDVF < p.CGDVF {
			return p.N
		}
	}
	return 0
}

// Render formats the comparison as the Figure 6 series.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: CG vs PCG (cache %s, FIT=%g, tol=%g)\n",
		r.Cache.Name, float64(r.Rate), r.Tol)
	fmt.Fprintf(&b, "%6s %8s %9s %14s %14s %10s\n",
		"n", "CG iter", "PCG iter", "DVF(CG)", "DVF(PCG)", "winner")
	for _, p := range r.Points {
		winner := "CG"
		if p.PCGDVF < p.CGDVF {
			winner = "PCG"
		}
		fmt.Fprintf(&b, "%6d %8d %9d %14.6g %14.6g %10s\n",
			p.N, p.CGIters, p.PCGIters, p.CGDVF, p.PCGDVF, winner)
	}
	if x := r.CrossoverSize(); x > 0 {
		fmt.Fprintf(&b, "PCG becomes less vulnerable than CG at n=%d\n", x)
	}
	return b.String()
}
