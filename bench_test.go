package dvf_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benchmarks for the design choices called out in DESIGN.md.
// Each benchmark regenerates its experiment end to end and reports the
// experiment's headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as the reproduction harness.

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/patterns"
	"github.com/resilience-models/dvf/internal/trace"
)

// BenchmarkFig4Verification regenerates Figure 4: the six kernels traced
// through the cache simulator against their CGPMAC estimates, on both
// verification caches. The reported metric is the worst model error.
func BenchmarkFig4Verification(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.Env{})
		if err != nil {
			b.Fatal(err)
		}
		maxErr = res.MaxAbsErrorPct()
	}
	b.ReportMetric(maxErr, "max-error-%")
}

// BenchmarkFig4PerKernel runs one verification cell per sub-benchmark.
func BenchmarkFig4PerKernel(b *testing.B) {
	for _, k := range kernels.VerificationSuite() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.VerifyKernel(k, cache.Small, experiments.Env{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Profiling regenerates Figure 5: DVF profiling of the six
// kernels at the Table VI sizes over the four profiling caches. The
// metric is the application DVF of the most vulnerable kernel (MC).
func BenchmarkFig5Profiling(b *testing.B) {
	var mc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(experiments.Env{})
		if err != nil {
			b.Fatal(err)
		}
		mc, err = res.Lookup("MC", cache.Profile16KB.Name, "DVF_a")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mc, "DVFa-MC-16KB")
}

// BenchmarkFig6CGvsPCG regenerates Figure 6: the CG-vs-PCG DVF comparison
// across problem sizes. The metric is the crossover size.
func BenchmarkFig6CGvsPCG(b *testing.B) {
	var crossover int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(experiments.Env{})
		if err != nil {
			b.Fatal(err)
		}
		crossover = res.CrossoverSize()
	}
	b.ReportMetric(float64(crossover), "crossover-n")
}

// BenchmarkFig7ECC regenerates Figure 7: the ECC degradation sweep. The
// metric is the degradation at which SECDED's DVF is minimized.
func BenchmarkFig7ECC(b *testing.B) {
	var atPct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig7(experiments.Env{})
		if err != nil {
			b.Fatal(err)
		}
		best, err := dvf.MinPoint(res.Series[0].Points)
		if err != nil {
			b.Fatal(err)
		}
		atPct = best.DegradationPct
	}
	b.ReportMetric(atPct, "SECDED-min-at-%")
}

// BenchmarkTableIVCaches measures the simulator's reference throughput on
// each Table IV geometry (the substrate cost behind Figure 4).
func BenchmarkTableIVCaches(b *testing.B) {
	configs := append(cache.VerificationConfigs(), cache.ProfilingConfigs()...)
	for _, cfg := range configs {
		cfg := cfg
		b.Run(cfg.Name, func(b *testing.B) {
			sim, err := cache.NewSimulator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Access(uint64(i*64)%(64<<20), 8, i&7 == 0, 1)
			}
		})
	}
}

// BenchmarkTableVKernels runs each verification-size kernel fully traced
// (the workload column of Table V).
func BenchmarkTableVKernels(b *testing.B) {
	for _, k := range kernels.VerificationSuite() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			sink := trace.ConsumerFunc(func(trace.Ref, int32) {})
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(sink); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableVIKernels runs each profiling-size kernel untraced (the
// workload column of Table VI, as consumed by Figure 5).
func BenchmarkTableVIKernels(b *testing.B) {
	for _, k := range kernels.ProfilingSuite() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := k.Run(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableVIIProtection sweeps each Table VII mechanism over the
// Figure 7 degradation axis.
func BenchmarkTableVIIProtection(b *testing.B) {
	degr := experiments.Fig7Degradations()
	for _, mech := range dvf.TableVII() {
		mech := mech
		b.Run(mech.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mech.Sweep(1e-5, 1<<20, 1e6, degr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md: design choices worth quantifying) ---

// BenchmarkAblationNBTreeModel compares the paper's plain uniform random
// model with the frequency-weighted extension on the N-body tree,
// reporting each variant's error against the cache simulator.
func BenchmarkAblationNBTreeModel(b *testing.B) {
	for _, plain := range []bool{true, false} {
		name := "weighted"
		if plain {
			name = "plain-random"
		}
		b.Run(name, func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				k := &kernels.NB{N: 1000, Theta: 0.5, Seed: 1, PlainRandom: plain}
				rows, err := experiments.VerifyKernel(k, cache.Small, experiments.Env{})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Structure == "T" {
						errPct = r.ErrorPct()
					}
				}
			}
			b.ReportMetric(errPct, "model-error-%")
		})
	}
}

// BenchmarkAblationReusePlacement compares the contiguous and Bernoulli
// set-placement assumptions in the reuse model (Equation 8 vs the
// round-robin refinement).
func BenchmarkAblationReusePlacement(b *testing.B) {
	for _, placement := range []patterns.Placement{patterns.PlacementContiguous, patterns.PlacementBernoulli} {
		placement := placement
		b.Run(placement.String(), func(b *testing.B) {
			var nha float64
			r := patterns.Reuse{TargetBytes: 4096, OtherBytes: 4096, Reuses: 100, Placement: placement}
			for i := 0; i < b.N; i++ {
				v, err := r.MemoryAccesses(cache.Small)
				if err != nil {
					b.Fatal(err)
				}
				nha = v
			}
			b.ReportMetric(nha, "N_ha")
		})
	}
}

// BenchmarkAblationTemplateDistance compares the LRU stack distance the
// template model counts with against the paper's raw index distance, on
// the block template of a row-major matvec (matvecTemplate) through the
// small cache.
func BenchmarkAblationTemplateDistance(b *testing.B) {
	blocks, capacity := matvecTemplate(), cache.Small.Lines()
	b.Run("stack-distance", func(b *testing.B) {
		var misses int64
		for i := 0; i < b.N; i++ {
			misses = stackDistanceMisses(blocks, capacity)
		}
		b.ReportMetric(float64(misses), "misses")
	})
	b.Run("raw-distance", func(b *testing.B) {
		var misses int64
		for i := 0; i < b.N; i++ {
			misses = rawDistanceMisses(blocks, capacity)
		}
		b.ReportMetric(float64(misses), "misses")
	})
}

// TestAblationTemplateDistanceInput pins the counts the ablation
// reports, so its input keeps telling the two distances apart.
func TestAblationTemplateDistanceInput(t *testing.T) {
	blocks, capacity := matvecTemplate(), cache.Small.Lines()
	if stack, raw := stackDistanceMisses(blocks, capacity), rawDistanceMisses(blocks, capacity); stack != 16448 || raw != 32768 {
		t.Errorf("stack distance %d misses, raw distance %d; want 16448 and 32768", stack, raw)
	}
}

// matvecTemplate returns the cache-block template of y = A p for a
// 256x256 matrix of 8-byte elements on the small cache's 32-byte lines,
// row by row: A[i][j]'s block, then p[j]'s, with p after A. Between two
// rows' visits of one p block lie 127 distinct blocks (64 of A's and
// p's 63 others), under the 256-line capacity, but 505 template
// entries, over it. So the stack distance misses on A's 16,384 blocks
// and p's 64, and the raw distance on p's blocks in every row as well.
func matvecTemplate() []int64 {
	const n = 256
	line := int64(cache.Small.LineSize)
	blocks := make([]int64, 0, 2*n*n)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			blocks = append(blocks, (i*n+j)*8/line, (n*n+j)*8/line)
		}
	}
	return blocks
}

// stackDistanceMisses counts the template's misses by the LRU stack
// distance, as the template model does.
func stackDistanceMisses(blocks []int64, capacity int) int64 {
	ctr := patterns.NewTemplateCounter(capacity)
	for _, b := range blocks {
		ctr.Visit(b)
	}
	return ctr.Misses()
}

// rawDistanceMisses counts the template's misses by the paper's raw
// index distance: a block misses on its first visit, and on a reuse
// with at least capacity template entries since its previous visit.
func rawDistanceMisses(blocks []int64, capacity int) int64 {
	var misses int64
	last := map[int64]int{}
	for i, b := range blocks {
		prev, seen := last[b]
		if !seen || i-prev-1 >= capacity {
			misses++
		}
		last[b] = i
	}
	return misses
}

// BenchmarkStoreVerification runs the write-side model validation: modeled
// writebacks vs the simulator for the kernels with uniform write patterns.
func BenchmarkStoreVerification(b *testing.B) {
	var maxErr float64
	for i := 0; i < b.N; i++ {
		maxErr = 0
		for _, k := range experiments.StoreModelers() {
			for _, cfg := range cache.VerificationConfigs() {
				rows, err := experiments.VerifyStores(k, cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					e := r.ErrorPct()
					if e < 0 {
						e = -e
					}
					if e > maxErr {
						maxErr = e
					}
				}
			}
		}
	}
	b.ReportMetric(maxErr, "max-wb-error-%")
}

// BenchmarkBaselineFaultInjection measures the traditional methodology the
// paper argues against: a statistical fault-injection campaign on the VM
// kernel, reporting how much more it costs than the model-based analysis
// (the Section I "prohibitively expensive" claim, quantified).
func BenchmarkBaselineFaultInjection(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.RunBaseline(kernels.NewVM(2000), 100, cache.Large)
		if err != nil {
			b.Fatal(err)
		}
		ratio = cmp.CostRatio()
	}
	b.ReportMetric(ratio, "injection-cost-x")
}

// BenchmarkHierarchyVsLLC quantifies the paper's LLC-only modeling
// assumption: main-memory loads of a 2-level hierarchy vs a standalone
// last-level simulation on a streaming workload.
func BenchmarkHierarchyVsLLC(b *testing.B) {
	var gapPct float64
	for i := 0; i < b.N; i++ {
		h, err := cache.NewHierarchy(
			cache.Config{Name: "l1", Associativity: 2, Sets: 32, LineSize: 16},
			cache.Small,
		)
		if err != nil {
			b.Fatal(err)
		}
		alone, err := cache.NewSimulator(cache.Small)
		if err != nil {
			b.Fatal(err)
		}
		for pass := 0; pass < 3; pass++ {
			for off := uint64(0); off < 64<<10; off += 8 {
				h.Access(off, 8, false, 1)
				alone.Access(off, 8, false, 1)
			}
		}
		full := float64(h.LastLevel().StructStats(1).Misses)
		ref := float64(alone.StructStats(1).Misses)
		gapPct = (full - ref) / ref * 100
	}
	b.ReportMetric(gapPct, "llc-gap-%")
}

// BenchmarkAblationCGTemplateP compares CG's closed-form reuse model for
// the direction vector p against the pseudocode-template replay.
func BenchmarkAblationCGTemplateP(b *testing.B) {
	for _, tmpl := range []bool{false, true} {
		tmpl := tmpl
		name := "closed-form"
		if tmpl {
			name = "template-replay"
		}
		b.Run(name, func(b *testing.B) {
			var errPct float64
			for i := 0; i < b.N; i++ {
				// The Table V verification size: at n=500 one matrix row
				// plus p exactly fills the small cache, exposing the
				// element-interleaving leak the closed form cannot see.
				k := &kernels.CG{N: 500, MaxIters: 10, TemplateP: tmpl}
				rows, err := experiments.VerifyKernel(k, cache.Small, experiments.Env{})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Structure == "p" {
						errPct = r.ErrorPct()
					}
				}
			}
			b.ReportMetric(errPct, "model-error-%")
		})
	}
}
