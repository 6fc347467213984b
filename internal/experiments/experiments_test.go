package experiments

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// TestFig4AllWithin15Percent is the paper's headline verification claim:
// "The estimation error is within 15% in all cases."
func TestFig4AllWithin15Percent(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification is slow")
	}
	res, err := RunFig4(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no verification rows")
	}
	for _, r := range res.Rows {
		if e := math.Abs(r.ErrorPct()); e > 15 {
			t.Errorf("%s/%s on %s: error %.1f%% exceeds the paper's 15%% bound",
				r.Kernel, r.Structure, r.Cache, e)
		}
	}
	// 13 structures across 6 kernels, on 2 caches.
	if len(res.Rows) != 26 {
		t.Errorf("verification rows = %d, want 26", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "max |error|") {
		t.Error("render missing the summary line")
	}
}

func TestFig4RowErrorPct(t *testing.T) {
	if (Fig4Row{Model: 115, Simulated: 100}).ErrorPct() != 15 {
		t.Error("ErrorPct arithmetic wrong")
	}
	if (Fig4Row{Model: 0, Simulated: 0}).ErrorPct() != 0 {
		t.Error("0/0 should be 0")
	}
	if (Fig4Row{Model: 5, Simulated: 0}).ErrorPct() != 100 {
		t.Error("nonzero model with zero simulated should report 100")
	}
}

func TestVerifyKernelSingle(t *testing.T) {
	rows, err := VerifyKernel(kernels.NewVM(1000), cache.Small, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Model <= 0 || r.Simulated <= 0 {
			t.Errorf("row %+v has non-positive counts", r)
		}
	}
}

// TestFig5Shapes pins the qualitative claims of the paper's Figure 5
// discussion.
func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep is slow")
	}
	res, err := RunFig5(Env{})
	if err != nil {
		t.Fatal(err)
	}

	lookup := func(kernel, cacheName, structure string) float64 {
		v, err := res.Lookup(kernel, cacheName, structure)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	for _, cfg := range cache.ProfilingConfigs() {
		// "the data structure A has obviously larger DVF than B and C"
		a := lookup("VM", cfg.Name, "A")
		b := lookup("VM", cfg.Name, "B")
		c := lookup("VM", cfg.Name, "C")
		if !(a > b && b > c) {
			t.Errorf("VM on %s: want DVF(A) > DVF(B) > DVF(C), got %g %g %g",
				cfg.Name, a, b, c)
		}
		// "the DVF for our CG implementation can be thousands of times
		// larger than that for the FT implementation"
		cg := lookup("CG", cfg.Name, "DVF_a")
		ft := lookup("FT", cfg.Name, "DVF_a")
		if cg < 100*ft {
			t.Errorf("CG on %s: DVF_a %g not >> FT %g", cfg.Name, cg, ft)
		}
		// "the DVF for MC is much larger than that for NB"
		mc := lookup("MC", cfg.Name, "DVF_a")
		nb := lookup("NB", cfg.Name, "DVF_a")
		if mc < 2*nb {
			t.Errorf("MC on %s: DVF_a %g not much larger than NB %g", cfg.Name, mc, nb)
		}
	}

	// "DVF values for the FT algorithm increase suddenly when the cache
	// capacity is smaller than a threshold (16KB)".
	ft16 := lookup("FT", cache.Profile16KB.Name, "DVF_a")
	ft128 := lookup("FT", cache.Profile128KB.Name, "DVF_a")
	if ft16 < 10*ft128 {
		t.Errorf("FT: no sudden jump below 32KB working set: 16KB=%g 128KB=%g", ft16, ft128)
	}
	// Streaming VM stays comparatively stable across caches (no jump).
	vm16 := lookup("VM", cache.Profile16KB.Name, "DVF_a")
	vm8m := lookup("VM", cache.Profile8MB.Name, "DVF_a")
	if vm16 > 100*vm8m {
		t.Errorf("VM: streaming DVF should not jump: 16KB=%g 8MB=%g", vm16, vm8m)
	}
	// Random-pattern MC declines gradually, not suddenly: each step of the
	// cache sweep changes DVF by less than the FT jump.
	mcPrev := lookup("MC", cache.Profile16KB.Name, "DVF_a")
	for _, cfg := range cache.ProfilingConfigs()[1:3] {
		cur := lookup("MC", cfg.Name, "DVF_a")
		if mcPrev/cur > 100 {
			t.Errorf("MC: DVF drop from %g to %g looks like a cliff", mcPrev, cur)
		}
		mcPrev = cur
	}
}

func TestProfileKernelReport(t *testing.T) {
	k := kernels.NewVM(1000)
	info, err := RunUntraced(k)
	if err != nil {
		t.Fatal(err)
	}
	app, err := ProfileKernel(k, info, cache.Small, dvf.FITNoECC, dvf.DefaultCostModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Structures) != 3 || app.Total() <= 0 {
		t.Errorf("profile: %+v", app)
	}
	if app.ExecHours <= 0 {
		t.Error("cost model produced non-positive time")
	}
}

// TestFig6Crossover pins the Section V-A claims: PCG is slightly more
// vulnerable at small sizes and clearly better at large ones.
func TestFig6Crossover(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	res, err := RunFig6(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 8 {
		t.Fatalf("points = %d, want 8", len(res.Points))
	}
	first := res.Points[0]
	if first.PCGDVF <= first.CGDVF {
		t.Errorf("n=100: PCG (%g) should be more vulnerable than CG (%g)",
			first.PCGDVF, first.CGDVF)
	}
	// "pretty close" at the small sizes: within a small factor.
	if first.PCGDVF > 3*first.CGDVF {
		t.Errorf("n=100: PCG %g vs CG %g not 'pretty close'", first.PCGDVF, first.CGDVF)
	}
	last := res.Points[len(res.Points)-1]
	if last.PCGDVF >= last.CGDVF {
		t.Errorf("n=800: PCG (%g) should beat CG (%g)", last.PCGDVF, last.CGDVF)
	}
	x := res.CrossoverSize()
	if x < 200 || x > 500 {
		t.Errorf("crossover at n=%d, want within [200, 500]", x)
	}
	// CG's iterations grow with n; PCG's stay roughly flat.
	if res.Points[7].CGIters <= res.Points[0].CGIters {
		t.Error("CG iterations did not grow with n")
	}
	if res.Points[7].PCGIters > 2*res.Points[0].PCGIters {
		t.Error("PCG iterations should stay roughly constant")
	}
	if !strings.Contains(res.Render(), "PCG becomes less vulnerable") {
		t.Error("render missing crossover line")
	}
}

// TestFig7ECC pins the Section V-B claims: protection slashes DVF, the
// minimum sits at ~5% degradation, and further loss raises vulnerability.
func TestFig7ECC(t *testing.T) {
	res, err := RunFig7(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want SECDED and chipkill", len(res.Series))
	}
	for _, s := range res.Series {
		best, err := dvf.MinPoint(s.Points)
		if err != nil {
			t.Fatal(err)
		}
		if best.DegradationPct != 5 {
			t.Errorf("%s: minimum at %g%%, want 5%%", s.Mechanism.Name, best.DegradationPct)
		}
		if best.DVF >= s.Points[0].DVF {
			t.Errorf("%s: protection did not decrease DVF", s.Mechanism.Name)
		}
		lastIdx := len(s.Points) - 1
		if s.Points[lastIdx].DVF <= best.DVF {
			t.Errorf("%s: DVF should rise past the minimum", s.Mechanism.Name)
		}
	}
	// Chipkill dominates SECDED everywhere past engagement.
	sec, chip := res.Series[0], res.Series[1]
	for i := 5; i < len(sec.Points); i++ {
		if chip.Points[i].DVF >= sec.Points[i].DVF {
			t.Errorf("at %g%%: chipkill %g not below SECDED %g",
				sec.Points[i].DegradationPct, chip.Points[i].DVF, sec.Points[i].DVF)
		}
	}
	if !strings.Contains(res.Render(), "minimum DVF") {
		t.Error("render missing minima")
	}
}

func TestTableVInputs(t *testing.T) {
	rows := TableV()
	suite := kernels.VerificationSuite()
	if len(rows) != len(suite) {
		t.Fatalf("Table V rows %d != suite size %d", len(rows), len(suite))
	}
	for i, r := range rows {
		if suite[i].Name() != r.Kernel {
			t.Errorf("row %d: kernel %s != suite %s", i, r.Kernel, suite[i].Name())
		}
	}
}

func TestTableVIInputs(t *testing.T) {
	rows := TableVI()
	suite := kernels.ProfilingSuite()
	if len(rows) != len(suite) {
		t.Fatalf("Table VI rows %d != suite size %d", len(rows), len(suite))
	}
	for i, r := range rows {
		if suite[i].Name() != r.Kernel {
			t.Errorf("row %d: kernel %s != suite %s", i, r.Kernel, suite[i].Name())
		}
	}
	// Profiling sizes dominate verification sizes where the paper says so.
	tv := TableV()
	for i := range rows {
		if rows[i].Kernel == "FT" {
			continue // FT uses class S in both tables
		}
		if rows[i].Value <= tv[i].Value {
			t.Errorf("%s: profiling size %d not larger than verification %d",
				rows[i].Kernel, rows[i].Value, tv[i].Value)
		}
	}
}

func TestFig5LookupError(t *testing.T) {
	res := &Fig5Result{}
	if _, err := res.Lookup("VM", "x", "A"); err == nil {
		t.Error("lookup on empty result succeeded")
	}
}

func TestFig6SizesAxis(t *testing.T) {
	sizes := Fig6Sizes()
	if len(sizes) != 8 || sizes[0] != 100 || sizes[7] != 800 {
		t.Errorf("Fig6 axis = %v", sizes)
	}
}

func TestFig7DegradationAxis(t *testing.T) {
	d := Fig7Degradations()
	if len(d) != 31 || d[0] != 0 || d[30] != 30 {
		t.Errorf("Fig7 axis = %v", d)
	}
}

func TestFig5RenderContainsAllKernels(t *testing.T) {
	res := &Fig5Result{Rate: dvf.FITNoECC, Cells: []Fig5Cell{
		{Kernel: "VM", Cache: "16KB", Structure: "A", DVF: 1e-5},
		{Kernel: "FT", Cache: "8MB", Structure: "DVF_a", DVF: 2e-8},
	}}
	out := res.Render()
	for _, want := range []string{"Figure 5", "VM", "FT", "DVF_a"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestBaselineCostRatioZeroGuard(t *testing.T) {
	cmp := &BaselineComparison{DVFSeconds: 0, InjectSeconds: 5}
	if cmp.CostRatio() != 0 {
		t.Error("zero model time should report 0 rather than dividing")
	}
}

// BenchmarkVerifyKernel times one Figure 4 cell per verification kernel
// and cache, as dvf-verify runs it: the traced run into the simulator,
// which stops CG once the cache state repeats and takes CG's matvec and
// MG's grid loops as strided groups, plus the CGPMAC models.
func BenchmarkVerifyKernel(b *testing.B) {
	for _, k := range kernels.VerificationSuite() {
		for _, cfg := range cache.VerificationConfigs() {
			b.Run(k.Name()+"/"+cfg.Name, func(b *testing.B) {
				for range b.N {
					if _, err := VerifyKernel(k, cfg, Env{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestCGExitBetweenBoundariesFallsBack forces CG's p.q == 0 exit, which
// leaves the loop part-way through an iteration. At n=2 the residual
// underflows to zero after 20 iterations; by then the cache state has
// long repeated, so the iteration's matvec and dot product were withheld
// from the stopped simulator. The bare run must fail rather than report
// counters short of those references, and replay must fall back to a
// full replay and return its counts, so VerifyKernel and
// VerifyKernelAnalytic answer on this input.
func TestCGExitBetweenBoundariesFallsBack(t *testing.T) {
	mk := func() *kernels.CG { return &kernels.CG{N: 2, MaxIters: 1000} }
	newSim := func() *cache.Simulator {
		sim, err := cache.NewSimulator(cache.Small)
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	full := newSim()
	plain := full.Consumer()
	want, err := mk().Run(trace.ConsumerFunc(plain.Access))
	if err != nil {
		t.Fatal(err)
	}
	if iters := int(want.Measured["iters"]); iters >= 1000 {
		t.Fatalf("CG n=2 ran %d iterations; the p.q == 0 exit did not fire", iters)
	}
	if info, err := mk().Run(newSim().Consumer()); !errors.Is(err, trace.ErrPartialPeriod) {
		t.Fatalf("exit between boundaries: info %+v, err %v; want trace.ErrPartialPeriod", info, err)
	}

	sim := newSim()
	got, err := replay(sim, mk().Run)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunInfo: replay %+v, full %+v", got, want)
	}
	if g, w := sim.PerStructStats(), full.PerStructStats(); !reflect.DeepEqual(g, w) {
		t.Errorf("PerStructStats: replay %v, full %v", g, w)
	}
	if g, w := sim.TotalStats(), full.TotalStats(); g != w {
		t.Errorf("TotalStats: replay %+v, full %+v", g, w)
	}
	if p, _ := sim.Extrapolated(); p != 0 {
		t.Errorf("the fallback extrapolated %d periods", p)
	}
	if _, err := VerifyKernel(mk(), cache.Small, Env{}); err != nil {
		t.Errorf("VerifyKernel: %v", err)
	}
	if _, _, err := VerifyKernelAnalytic(mk(), cache.Small); err != nil {
		t.Errorf("VerifyKernelAnalytic: %v", err)
	}
}
