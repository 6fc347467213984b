package dvf_test

// Top-level smoke tests: quick end-to-end passes over the reproduction's
// headline results, cheap enough to run on every change (the full gate is
// cmd/dvf-repro and the benchmarks).

import (
	"math"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/core"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/kernels"
)

func TestSmokeVerificationBound(t *testing.T) {
	// One cheap kernel per pattern class against the small cache.
	for _, k := range []kernels.Kernel{
		kernels.NewVM(1000),
		kernels.NewFT(2048),
		kernels.NewMC(1000),
	} {
		rows, err := experiments.VerifyKernel(k, cache.Small, experiments.Env{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if e := math.Abs(r.ErrorPct()); e > 15 {
				t.Errorf("%s/%s: %.1f%% error", r.Kernel, r.Structure, e)
			}
		}
	}
}

func TestSmokeFig7Minimum(t *testing.T) {
	res, err := experiments.RunFig7(experiments.Env{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		best, err := dvf.MinPoint(s.Points)
		if err != nil {
			t.Fatal(err)
		}
		if best.DegradationPct != 5 {
			t.Errorf("%s minimum at %.0f%%, want 5%%", s.Mechanism.Name, best.DegradationPct)
		}
	}
}

func TestSmokeFacadeEndToEnd(t *testing.T) {
	k, err := core.NewKernel("VM")
	if err != nil {
		t.Fatal(err)
	}
	report, err := core.AnalyzeKernel(k, core.Cache8MB, core.NoECC)
	if err != nil {
		t.Fatal(err)
	}
	if report.Total() <= 0 {
		t.Error("non-positive application DVF")
	}
	ev, err := core.AnalyzeSource(`
model smoke {
    machine { cache { assoc 4 sets 64 line 32 } memory { fit 5000 } }
    data A { size 8192  pattern streaming(8, 1024, 1) }
}`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ev.Structure("A")
	if err != nil {
		t.Fatal(err)
	}
	if a.NHa != 256 {
		t.Errorf("DSL smoke: N_ha = %g, want 256", a.NHa)
	}
}
