package core

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/resilience-models/dvf/internal/aspen"
	"github.com/resilience-models/dvf/internal/dvf"
)

func TestNewKernelAndKernels(t *testing.T) {
	if len(Kernels()) != 6 {
		t.Fatalf("Kernels() = %d, want 6", len(Kernels()))
	}
	k, err := NewKernel("FT")
	if err != nil || k.Name() != "FT" {
		t.Fatalf("NewKernel(FT) = %v, %v", k, err)
	}
	if _, err := NewKernel("??"); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestAnalyzeKernelEndToEnd(t *testing.T) {
	k, err := NewKernel("VM")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeKernel(k, CacheSmall, NoECC)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() <= 0 || len(rep.Structures) != 3 {
		t.Errorf("report: %+v", rep)
	}
	// Chipkill cuts the same analysis by the FIT ratio.
	prot, err := AnalyzeKernel(k, CacheSmall, Chipkill)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rep.Total() / prot.Total()
	if math.Abs(ratio-float64(NoECC)/float64(Chipkill)) > 1e-6*ratio {
		t.Errorf("FIT scaling broken: ratio %g", ratio)
	}
}

// copyRunInfo deep-copies a run: every slice and map is fresh.
func copyRunInfo(ri *RunInfo) *RunInfo {
	c := *ri
	c.Structures = slices.Clone(ri.Structures)
	c.Measured = maps.Clone(ri.Measured)
	if ri.Profiles != nil {
		c.Profiles = make(map[string][]float64, len(ri.Profiles))
		for name, freqs := range ri.Profiles {
			c.Profiles[name] = slices.Clone(freqs)
		}
	}
	return &c
}

// TestAnalyzeRunLeavesRunInfoUnchanged pins the contract that lets a
// server share one run between concurrent analyses: evaluating every
// kernel's models on every bundled cache under each engine it supports
// (Models plus MemoryAccesses, or the analytic solve) only reads the run.
func TestAnalyzeRunLeavesRunInfoUnchanged(t *testing.T) {
	caches := []CacheConfig{CacheSmall, CacheLarge, Cache16KB, Cache128KB, Cache1MB, Cache8MB}
	for _, k := range Kernels() {
		info, err := k.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		want := copyRunInfo(info)
		for _, cfg := range caches {
			for _, analytic := range []bool{false, true} {
				if analytic && !Affine(k) {
					continue
				}
				if _, err := AnalyzeRun(k, info, cfg, NoECC, analytic); err != nil {
					t.Fatalf("%s on %s (analytic %v): %v", k.Name(), cfg.Name, analytic, err)
				}
			}
		}
		if !reflect.DeepEqual(info, want) {
			t.Errorf("%s: evaluating the models changed the shared run", k.Name())
		}
	}
}

func TestVerifyKernelFacade(t *testing.T) {
	k, err := NewKernel("VM")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := VerifyKernel(k, CacheSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.ErrorPct()) > 15 {
			t.Errorf("%s/%s error %.1f%%", r.Kernel, r.Structure, r.ErrorPct())
		}
	}
}

func TestAnalyzeSource(t *testing.T) {
	src := `
model demo {
    param n = 4096
    machine {
        cache { assoc 4 sets 64 line 32 }
        memory { fit 5000 }
    }
    data A { size 8*n  pattern streaming(8, n, 1) }
    kernel main { flops 2*n }
}`
	ev, err := AnalyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ev.Structure("A")
	if err != nil {
		t.Fatal(err)
	}
	if a.NHa != 1024 { // 32768 bytes / 32-byte lines
		t.Errorf("N_ha = %g, want 1024", a.NHa)
	}
	// Override the cache through the façade option plumbing.
	ev2, err := AnalyzeSource(src, aspen.WithCache(Cache8MB))
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := ev2.Structure("A")
	if a2.NHa != 512 { // 64-byte lines
		t.Errorf("overridden N_ha = %g, want 512", a2.NHa)
	}
}

func TestAnalyzeSourceRejectsBadModels(t *testing.T) {
	if _, err := AnalyzeSource("model {"); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := AnalyzeSource(`model m { data A { size 8 } }`); err == nil {
		t.Error("semantic error accepted")
	}
}

func TestSelectProtectionPicksWeakestSufficient(t *testing.T) {
	const (
		hours = 1e-3
		bytes = 1 << 20
		nha   = 1e6
	)
	unprotected := dvf.ForStructure(NoECC, hours, bytes, nha)

	// A lax target: no ECC at all suffices.
	mech, _, err := SelectProtection(hours, bytes, nha, unprotected*2)
	if err != nil || mech.Name != "No ECC" {
		t.Errorf("lax target picked %v, %v", mech.Name, err)
	}
	// A moderate target: SECDED's floor reaches it, no ECC does not.
	secdedBest := dvf.ForStructure(SECDED, hours*1.05, bytes, nha)
	mech, point, err := SelectProtection(hours, bytes, nha, secdedBest*1.5)
	if err != nil || mech.Name != "SECDED" {
		t.Errorf("moderate target picked %v, %v", mech.Name, err)
	}
	if point.DegradationPct != 5 {
		t.Errorf("operating point at %g%%, want 5%%", point.DegradationPct)
	}
	// A brutal target: only chipkill.
	chipBest := dvf.ForStructure(Chipkill, hours*1.05, bytes, nha)
	mech, _, err = SelectProtection(hours, bytes, nha, chipBest*1.5)
	if err != nil || mech.Name != "Chipkill correct" {
		t.Errorf("strict target picked %v, %v", mech.Name, err)
	}
	// An impossible target.
	if _, _, err := SelectProtection(hours, bytes, nha, chipBest/1e6); err == nil {
		t.Error("impossible target satisfied")
	}
}
