// Stencil solver: model the resilience of a user-written 3-D Jacobi
// stencil without running or even writing the solver.
//
// This is the CGPMAC workflow on code that is not one of the built-in
// kernels: describe the grid's access template from the pseudocode (each
// interior cell reads its six neighbors, then writes itself), let the
// template model count main-memory accesses per cache configuration, and
// attach the DVF metric. The sweep shows how the working set falling out
// of cache changes both traffic and vulnerability — exactly the kind of
// design-space exploration the paper's Section III-A lists.
//
// Run with:
//
//	go run ./examples/stencil-solver
package main

import (
	"fmt"
	"log"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/patterns"
)

const (
	n        = 48 // grid points per axis
	elemSize = 8  // float64 cells
	sweeps   = 4  // Jacobi iterations
)

// stencilTemplate feeds the 7-point stencil's element template through the
// two-step reuse-distance algorithm for one cache geometry. Consecutive k
// steps touch the same seven lines until one of the seven cells leaves
// its line, so each such run of steps goes to the counter as one block
// group visited run times over: VisitRun counts the repeats as hits
// whenever the group fits in the cache, with the same result as visiting
// every cell.
func stencilTemplate(cfg cache.Config) (float64, error) {
	ctr := patterns.NewTemplateCounter(cfg.Lines())
	line := int64(cfg.LineSize)
	addr := func(i, j, k int) int64 { return int64((i*n+j)*n+k) * elemSize }
	var group []int64
	for s := 0; s < sweeps; s++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				for k := 1; k < n-1; {
					group = group[:0]
					run := int64(n - 1 - k)
					for _, a := range [...]int64{
						addr(i-1, j, k), addr(i+1, j, k),
						addr(i, j-1, k), addr(i, j+1, k),
						addr(i, j, k-1), addr(i, j, k+1),
						addr(i, j, k),
					} {
						for b := a / line; b <= (a+elemSize-1)/line; b++ {
							group = append(group, b)
						}
						run = min(run, cache.StepsInLine(a, elemSize, elemSize, line))
					}
					ctr.VisitRun(group, int(run))
					k += int(run)
				}
			}
		}
	}
	return float64(ctr.Misses()), nil
}

func main() {
	gridBytes := int64(n) * n * n * elemSize
	grid := patterns.Func{
		Name:  "template",
		Bytes: gridBytes,
		F:     stencilTemplate,
	}
	flops := float64(sweeps) * float64((n-2)*(n-2)*(n-2)) * 7

	fmt.Printf("3-D Jacobi stencil, %d^3 grid (%d KB), %d sweeps\n",
		n, gridBytes>>10, sweeps)
	fmt.Printf("%-22s %14s %12s %14s\n", "cache", "N_ha", "T (ms)", "DVF(grid)")
	for _, cfg := range cache.ProfilingConfigs() {
		nha, err := grid.MemoryAccesses(cfg)
		if err != nil {
			log.Fatal(err)
		}
		seconds := dvf.DefaultCostModel.ExecSeconds(0, nha, flops)
		d := dvf.ForStructure(dvf.FITNoECC, seconds/3600, gridBytes, nha)
		fmt.Printf("%-22s %14.0f %12.3f %14.6g\n", cfg.Name, nha, seconds*1e3, d)
	}

	fmt.Println("\nreading the table: once the grid (~864 KB) no longer fits the")
	fmt.Println("cache, every sweep re-streams it from memory — N_ha jumps by the")
	fmt.Println("sweep count and the vulnerability follows.")
}
