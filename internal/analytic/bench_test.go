package analytic_test

import (
	"testing"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/kernels"
)

// BenchmarkAnalyticSolve times one solve of the MG and FT verification
// descriptors on each of the six bundled cache geometries.
func BenchmarkAnalyticSolve(b *testing.B) {
	for _, k := range []kernels.Kernel{kernels.NewMG(32, 1), kernels.NewFT(2048)} {
		d, ok := kernels.Affine(k)
		if !ok {
			b.Fatalf("%s lost its descriptor", k.Name())
		}
		for _, cfg := range allConfigs() {
			b.Run(k.Name()+"/"+cfg.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := analytic.Solve(d, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
