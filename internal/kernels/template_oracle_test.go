package kernels

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/patterns"
	"github.com/resilience-models/dvf/internal/trace"
)

// The element walks below are the template models as the pseudocode
// states them: every element of every loop step visited on its own. The
// line-run walks the models run must match them in every counter.

// visitElem feeds the blocks of the size-byte element elem to ctr.
func visitElem(ctr *patterns.TemplateCounter, elem int, size, lineSize int64) {
	first := int64(elem) * size / lineSize
	last := (int64(elem)*size + size - 1) / lineSize
	for b := first; b <= last; b++ {
		ctr.Visit(b)
	}
}

// mgElementWalk is MG's template, element by element.
func mgElementWalk(mg *MG, c cache.Config) *patterns.TemplateCounter {
	ctr := patterns.NewTemplateCounter(c.Lines(), false)
	mgElementVisits(mg, int64(c.LineSize), func(b int64) { ctr.Visit(b) })
	return ctr
}

// mgElementVisits presents MG's template for lines of lineSize bytes
// to visitBlock, block by block.
func mgElementVisits(mg *MG, lineSize int64, visitBlock func(int64)) {
	cycles, sweeps := max(mg.Cycles, 1), max(mg.Smooth, 1)
	dims := mgLevels(mg.N)
	offsets, _ := mgOffsets(dims)
	visit := func(elem int) {
		for b := int64(elem) * elem8 / lineSize; b <= (int64(elem)*elem8+elem8-1)/lineSize; b++ {
			visitBlock(b)
		}
	}
	smoothT := func(l int) {
		n := dims[l]
		at := func(i, j, k int) int { return offsets[l] + (i*n+j)*n + k }
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				for k := 0; k < n; k++ {
					visit(at(i, j-1, k))
					visit(at(i, j+1, k))
					visit(at(i-1, j, k))
					visit(at(i+1, j, k))
					visit(at(i, j, k))
				}
			}
		}
	}
	eachChild := func(l, i, j, k int, fn func(fine int)) {
		nf := dims[l]
		for di := 0; di < 2; di++ {
			for dj := 0; dj < 2; dj++ {
				for dk := 0; dk < 2; dk++ {
					fn(offsets[l] + ((2*i+di)*nf+2*j+dj)*nf + 2*k + dk)
				}
			}
		}
	}
	restrictT := func(l int) {
		nc := dims[l+1]
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				for k := 0; k < nc; k++ {
					eachChild(l, i, j, k, visit)
					visit(offsets[l+1] + (i*nc+j)*nc + k)
				}
			}
		}
	}
	prolongT := func(l int) {
		nc := dims[l+1]
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				for k := 0; k < nc; k++ {
					visit(offsets[l+1] + (i*nc+j)*nc + k)
					eachChild(l, i, j, k, func(f int) { visit(f); visit(f) })
				}
			}
		}
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for l := 0; l < len(dims)-1; l++ {
			for s := 0; s < sweeps; s++ {
				smoothT(l)
			}
			restrictT(l)
		}
		for s := 0; s < 2*sweeps; s++ {
			smoothT(len(dims) - 1)
		}
		for l := len(dims) - 2; l >= 0; l-- {
			prolongT(l)
			for s := 0; s < sweeps; s++ {
				smoothT(l)
			}
		}
	}
}

// ftElementWalk is FT's template, element by element.
func ftElementWalk(f *FT, c cache.Config) *patterns.TemplateCounter {
	n := f.N
	logN := bits.TrailingZeros(uint(n))
	ctr := patterns.NewTemplateCounter(c.Lines(), false)
	visit := func(elem int) { visitElem(ctr, elem, ftElemSize, int64(c.LineSize)) }
	for round := 0; round < max(f.Rounds, 1); round++ {
		for i := 0; i < n; i++ {
			j := int(bits.Reverse32(uint32(i)) >> (32 - logN))
			if i < j {
				visit(i)
				visit(j)
				visit(i)
				visit(j)
			}
		}
		for size := 2; size <= n; size *= 2 {
			half := size / 2
			for start := 0; start < n; start += size {
				for j := 0; j < half; j++ {
					visit(start + j)
					visit(start + j + half)
					visit(start + j)
					visit(start + j + half)
				}
			}
		}
	}
	return ctr
}

// cgElementWalk is CG's template, element by element and every
// iteration simulated, returning each region's counters.
func cgElementWalk(t testing.TB, n, iters int, cfg cache.Config) []cache.Stats {
	t.Helper()
	regs := cgTemplateRegions(n)
	sim, err := cache.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	A, x, p, r, q := &regs[0], &regs[1], &regs[2], &regs[3], &regs[4]
	touch := func(rg *trace.Region, i int, write bool) {
		sim.Access(rg.Base+uint64(i)*elem8, elem8, write, cache.StructID(rg.ID))
	}
	for i := 0; i < n; i++ {
		touch(r, i, false)
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				touch(A, i*n+j, false)
				touch(p, j, false)
			}
			touch(q, i, true)
		}
		for i := 0; i < n; i++ {
			touch(p, i, false)
			touch(q, i, false)
		}
		for i := 0; i < n; i++ {
			touch(x, i, false)
			touch(p, i, false)
			touch(x, i, true)
		}
		for i := 0; i < n; i++ {
			touch(r, i, false)
			touch(q, i, false)
			touch(r, i, true)
		}
		for i := 0; i < n; i++ {
			touch(r, i, false)
		}
		for i := 0; i < n; i++ {
			touch(r, i, false)
			touch(p, i, false)
			touch(p, i, true)
		}
	}
	out := make([]cache.Stats, len(regs))
	for i, rg := range regs {
		out[i] = sim.StructStats(cache.StructID(rg.ID))
	}
	return out
}

// lineRunGeometries are the Table IV caches plus a direct-mapped one, a
// one-set (fully associative) one and one whose 4-byte lines split
// every element.
func lineRunGeometries() []cache.Config {
	return append(append(cache.VerificationConfigs(), cache.ProfilingConfigs()...),
		cache.Config{Name: "direct-mapped", Associativity: 1, Sets: 128, LineSize: 32},
		cache.Config{Name: "one-set", Associativity: 96, Sets: 1, LineSize: 64},
		cache.Config{Name: "4B-lines", Associativity: 2, Sets: 64, LineSize: 4},
	)
}

// cgP is p's index in cgTemplateRegions.
const cgP = 2

// requireSameCG fails unless CG's count of p's template misses, n x n
// for iters iterations on cfg, equals the element walk's (cgElementWalk).
func requireSameCG(t testing.TB, n, iters int, cfg cache.Config) {
	t.Helper()
	tmpl := newCGTemplate(n)
	if got, want := tmpl.pMisses(cfg, iters), cgElementWalk(t, n, iters, cfg)[cgP].Misses; got != want {
		t.Errorf("CG n=%d iters=%d p on %v: count %d, element walk %d", n, iters, cfg, got, want)
	}
}

// requireSameMG fails unless MG's template walk gives the element
// walk's counters.
func requireSameMG(t testing.TB, mg *MG, cfg cache.Config) {
	t.Helper()
	if got, want := mg.templateCounts(cfg), mgElementWalk(mg, cfg).Stats(); got != want {
		t.Errorf("MG %+v on %v: walk %+v, element walk %+v", *mg, cfg, got, want)
	}
}

// requireSameCounter fails unless the line-run walk's counter equals the
// element walk's in every counter.
func requireSameCounter(t *testing.T, got, want *patterns.TemplateCounter) {
	t.Helper()
	if got.Misses() != want.Misses() || got.Visits() != want.Visits() || got.DistinctBlocks() != want.DistinctBlocks() {
		t.Errorf("line runs: misses %d, visits %d, distinct %d; element walk: %d, %d, %d",
			got.Misses(), got.Visits(), got.DistinctBlocks(), want.Misses(), want.Visits(), want.DistinctBlocks())
	}
}

// TestLineRunWalksMatchElementWalks is the line-run differential: MG,
// FT and CG's template models give the same counts as their element
// walks on every geometry, at sizes whose rows do not line up with the
// cache lines. MG's walk counts the caches it fits in and moves planes
// that repeat by translation; all of its Stats are compared. CG's model
// counts p's misses from stack distances without walking, in time that
// does not grow with the iterations, so at its verification size, n=500
// for 10 iterations, it is held to an element walk of all ten.
func TestLineRunWalksMatchElementWalks(t *testing.T) {
	geoms := lineRunGeometries()
	for _, n := range []int{8, 16, 32} {
		for _, mg := range []*MG{{N: n}, {N: n, Cycles: 2, Smooth: 2}} {
			for _, cfg := range geoms {
				t.Run(fmt.Sprintf("MG/n%d/c%d/%s", n, mg.Cycles, cfg.Name), func(t *testing.T) {
					requireSameMG(t, mg, cfg)
				})
			}
		}
	}
	for n := 16; n <= 2048; n *= 2 {
		for _, f := range []*FT{{N: n}, {N: n, Rounds: 2}} {
			for _, cfg := range geoms {
				t.Run(fmt.Sprintf("FT/n%d/r%d/%s", n, f.Rounds, cfg.Name), func(t *testing.T) {
					requireSameCounter(t, f.templateWalk(cfg), ftElementWalk(f, cfg))
				})
			}
		}
	}
	cgCases := []struct{ n, iters int }{{37, 3}, {101, 4}, {255, 2}}
	if !testing.Short() {
		cgCases = append(cgCases, struct{ n, iters int }{500, 10})
	}
	for _, c := range cgCases {
		for _, cfg := range geoms {
			t.Run(fmt.Sprintf("CG/n%d/%s", c.n, cfg.Name), func(t *testing.T) {
				requireSameCG(t, c.n, c.iters, cfg)
			})
		}
	}
}

// TestMGElementWalkIsOneSetLRU pins the template model's meaning: MG's
// element walk, a TemplateCounter of c.Lines() blocks, counts exactly
// what a one-set simulator of c.Lines() ways counts on the same block
// stream, in accesses, misses and evictions. That is the one-set cache
// the analytic solver would have to match. The one-set simulator scans
// its ways on every miss, so only the smaller caches run, and n=32
// only outside -short.
func TestMGElementWalkIsOneSetLRU(t *testing.T) {
	sizes := []int{8, 16}
	if !testing.Short() {
		sizes = append(sizes, 32)
	}
	for _, n := range sizes {
		for _, c := range []cache.Config{cache.Small, cache.Profile16KB, cache.Profile128KB} {
			if n == 32 && c.Lines() > cache.Profile16KB.Lines() {
				continue
			}
			mg := &MG{N: n}
			sim, err := cache.NewSimulator(cache.Config{Name: "one-set", Associativity: c.Lines(), Sets: 1, LineSize: c.LineSize})
			if err != nil {
				t.Fatal(err)
			}
			mgElementVisits(mg, int64(c.LineSize), func(b int64) {
				sim.Access(uint64(b)*uint64(c.LineSize), 1, false, 1)
			})
			got, want := sim.TotalStats(), mgElementWalk(mg, c).Stats()
			if got.Accesses != want.Accesses || got.Misses != want.Misses || got.Evictions != want.Evictions {
				t.Errorf("n=%d %s: one-set simulator %+v, element walk %+v", n, c.Name, got, want)
			}
		}
	}
}
