package analytic_test

import (
	"runtime"
	"testing"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
)

// TestSolveAllocations guards the per-solve footprint of the two
// stream kernels: the timeline is sized from the descriptor (a handful
// of whole-region segments here), not from fixed 1024-entry trees, so a
// VM or CG solve stays at a dozen allocations and a few kilobytes.
func TestSolveAllocations(t *testing.T) {
	const maxAllocs, maxBytes = 12, 4 << 10
	for _, k := range []kernels.Kernel{kernels.NewVM(1000), kernels.NewCG(500, 10)} {
		d, ok := kernels.Affine(k)
		if !ok {
			t.Fatalf("%s lost its descriptor", k.Name())
		}
		for _, cfg := range cache.VerificationConfigs() {
			solve := func() {
				if _, err := analytic.Solve(d, cfg); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, solve)
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				solve()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s on %s: %.0f allocations, %d bytes per solve", k.Name(), cfg.Name, allocs, bytes)
			if allocs > maxAllocs || bytes > maxBytes {
				t.Errorf("%s on %s: %.0f allocations and %d bytes per solve, want at most %d and %d",
					k.Name(), cfg.Name, allocs, bytes, maxAllocs, maxBytes)
			}
		}
	}
}
