package core

import (
	"fmt"
	"sort"
	"strings"

	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/experiments"
)

// DesignPoint is one cell of a design-space exploration: an application
// on a candidate machine (cache geometry plus memory protection), with its
// modeled vulnerability and the performance proxy the protection costs.
type DesignPoint struct {
	Kernel     string
	Cache      CacheConfig
	Protection dvf.ECC
	// DVFa is the application DVF with the protection fully engaged (at
	// its saturation operating point, including the exposure-time cost).
	DVFa float64
	// ExecHours is the modeled execution time at that operating point.
	ExecHours float64
}

// ExploreResult is a completed sweep, sorted by ascending DVF.
type ExploreResult struct {
	Points []DesignPoint
}

// Explore evaluates every (cache, protection) combination for one kernel —
// the "rapid exploration of new algorithm and architectures" workflow the
// paper inherits from Aspen, with resilience as the objective. The kernel
// runs once, untraced; the cells share that run and evaluate their models
// concurrently, so the cost is one kernel run plus one model evaluation
// per cell.
func Explore(k Kernel, caches []CacheConfig, protections []dvf.ECC) (*ExploreResult, error) {
	if len(caches) == 0 || len(protections) == 0 {
		return nil, fmt.Errorf("core: empty design space")
	}
	type cell struct {
		cfg  CacheConfig
		prot dvf.ECC
	}
	var cells []cell
	for _, cfg := range caches {
		for _, prot := range protections {
			cells = append(cells, cell{cfg: cfg, prot: prot})
		}
	}
	info, err := experiments.RunUntraced(k)
	if err != nil {
		return nil, err
	}
	points := make([]DesignPoint, len(cells))
	err = experiments.Parallel(len(cells), experiments.Env{}, func(i int) error {
		var err error
		points[i], err = explorePoint(k, info, cells[i].cfg, cells[i].prot)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &ExploreResult{Points: points}
	sort.SliceStable(res.Points, func(i, j int) bool {
		return res.Points[i].DVFa < res.Points[j].DVFa
	})
	return res, nil
}

// explorePoint evaluates one cell from the kernel's shared untraced run.
func explorePoint(k Kernel, info *RunInfo, cfg CacheConfig, prot dvf.ECC) (DesignPoint, error) {
	// Unprotected analysis first: the protection then rescales the rate
	// and stretches the exposure time by its saturation overhead.
	app, err := AnalyzeRun(k, info, cfg, dvf.FITNoECC, false)
	if err != nil {
		return DesignPoint{}, err
	}
	overhead := 1 + prot.SaturationPct/100
	hours := app.ExecHours * overhead
	var total float64
	for _, s := range app.Structures {
		total += dvf.ForStructure(prot.EffectiveFIT(prot.SaturationPct), hours, s.Bytes, s.NHa)
	}
	return DesignPoint{
		Kernel:     k.Name(),
		Cache:      cfg,
		Protection: prot,
		DVFa:       total,
		ExecHours:  hours,
	}, nil
}

// Best returns the point with the lowest DVF.
func (r *ExploreResult) Best() (DesignPoint, error) {
	if len(r.Points) == 0 {
		return DesignPoint{}, fmt.Errorf("core: empty exploration")
	}
	return r.Points[0], nil
}

// Render formats the sweep, most resilient configuration first.
func (r *ExploreResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design-space exploration")
	if len(r.Points) > 0 {
		fmt.Fprintf(&b, ": %s", r.Points[0].Kernel)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-22s %-18s %14s %12s\n", "cache", "protection", "DVF_a", "T (s)")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-22s %-18s %14.6g %12.4g\n",
			p.Cache.Name, p.Protection.Name, p.DVFa, p.ExecHours*3600)
	}
	return b.String()
}
