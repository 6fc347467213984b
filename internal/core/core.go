// Package core is the façade over the DVF modeling toolkit: it wires the
// paper's Figure 3 workflow — application information and hardware
// information in, per-data-structure DVF out — into a handful of calls.
//
// Three entry points cover the common uses:
//
//   - AnalyzeKernel: run one of the built-in Table II kernels, model its
//     data structures with CGPMAC, and report DVFs on a cache of choice.
//   - AnalyzeModel / AnalyzeSource: evaluate a user-written extended-Aspen
//     model (the DSL of Section III-D).
//   - VerifyKernel: compare a kernel's analytical model against the cache
//     simulator driven by the kernel's own reference trace (Figure 4).
//
// Everything underneath remains available for finer control: package
// patterns exposes the four access-pattern models, package cache the LRU
// simulator, package aspen the DSL, package dvf the metric itself, and
// package experiments the paper's figure-by-figure harnesses.
package core

import (
	"fmt"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/aspen"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/kernels"
)

// Re-exported types so that callers of the façade rarely need to import
// the inner packages directly.
type (
	// CacheConfig is a last-level cache geometry (Table III / Table IV).
	CacheConfig = cache.Config
	// FIT is a memory failure rate in failures/(1e9 h * Mbit) (Table VII).
	FIT = dvf.FIT
	// Report is a per-application DVF breakdown (Equations 1 and 2).
	Report = dvf.Application
	// Kernel is one of the built-in Table II algorithms.
	Kernel = kernels.Kernel
	// RunInfo is what one untraced kernel run exposes to the models: the
	// workload counts and the profiled model inputs.
	RunInfo = kernels.RunInfo
	// VerificationRow is one model-vs-simulator comparison (Figure 4).
	VerificationRow = experiments.Fig4Row
	// AnalyticProfile is a trace-free per-structure miss profile solved
	// from a kernel's affine access pattern (engine=analytic).
	AnalyticProfile = analytic.Profile
	// AnalyticRow is one analytic-vs-simulated differential comparison.
	AnalyticRow = experiments.AnalyticRow
)

// The Table IV cache configurations.
var (
	CacheSmall = cache.Small
	CacheLarge = cache.Large
	Cache16KB  = cache.Profile16KB
	Cache128KB = cache.Profile128KB
	Cache1MB   = cache.Profile1MB
	Cache8MB   = cache.Profile8MB
)

// The Table VII failure rates.
const (
	NoECC    = dvf.FITNoECC
	Chipkill = dvf.FITChipkill
	SECDED   = dvf.FITSECDED
)

// NewKernel constructs a built-in kernel by its Table II code (VM, CG, NB,
// MG, FT or MC) at the paper's verification input size.
func NewKernel(code string) (Kernel, error) {
	return kernels.ByName(code)
}

// Kernels returns the six built-in kernels at the verification sizes.
func Kernels() []Kernel {
	return kernels.VerificationSuite()
}

// AnalyzeKernel runs the kernel (untraced), models each of its major data
// structures with CGPMAC on the given cache, and returns the DVF report
// under the given failure rate.
func AnalyzeKernel(k Kernel, cfg CacheConfig, rate FIT) (*Report, error) {
	info, err := experiments.RunUntraced(k)
	if err != nil {
		return nil, err
	}
	return AnalyzeRun(k, info, cfg, rate, false)
}

// AnalyzeRun is AnalyzeKernel, or AnalyzeKernelAnalytic when analytic is
// set, over a prior untraced run of k instead of a fresh one. The run
// depends on neither the cache nor the failure rate, so a caller that
// answers many questions about one kernel runs it once and passes the
// same info every time; info is only read, also by concurrent calls.
func AnalyzeRun(k Kernel, info *RunInfo, cfg CacheConfig, rate FIT, analytic bool) (*Report, error) {
	if analytic {
		return experiments.ProfileKernelAnalytic(k, info, cfg, rate, dvf.DefaultCostModel)
	}
	return experiments.ProfileKernel(k, info, cfg, rate, dvf.DefaultCostModel)
}

// VerifyKernel traces the kernel through the LRU cache simulator and
// compares the analytical estimates with the simulated main-memory access
// counts — the model-validation procedure of Section IV-A.
func VerifyKernel(k Kernel, cfg CacheConfig) ([]VerificationRow, error) {
	return experiments.VerifyKernel(k, cfg, experiments.Env{})
}

// AutoWorkers is a worker count kept so callers of the old API still
// build. Passed to VerifyKernelWorkers it is ignored; as a figure
// driver's cell count it means "no bound", like 0.
const AutoWorkers = -1

// VerifyKernelWorkers is VerifyKernel; workers is ignored. It exists so
// callers of the old API still build.
func VerifyKernelWorkers(k Kernel, cfg CacheConfig, workers int) ([]VerificationRow, error) {
	return experiments.VerifyKernel(k, cfg, experiments.Env{})
}

// Affine reports whether the kernel has a static affine access pattern,
// i.e. whether the trace-free analytic engine applies to it (VM, CG, MG
// and FT of the Table II suite; NB and MC are data- or RNG-dependent).
func Affine(k Kernel) bool {
	_, ok := kernels.Affine(k)
	return ok
}

// SolveAnalytic runs the trace-free analytic engine: it derives the
// kernel's per-structure main-memory access counts symbolically from its
// affine loop structure, without a trace (microseconds for VM and CG,
// and for MG and FT on conflict-free caches; a fraction of a
// millisecond for MG and FT elsewhere — see analytic.Solve).
// The result matches the sequential simulator within the documented
// per-kernel tolerances (analytic.Tolerance, enforced by the differential
// wall and by dvf-verify -engine analytic).
func SolveAnalytic(k Kernel, cfg CacheConfig) (*AnalyticProfile, error) {
	d, ok := kernels.Affine(k)
	if !ok {
		return nil, fmt.Errorf("core: %s has no affine access pattern (engine=analytic needs one)", k.Name())
	}
	return analytic.Solve(d, cfg)
}

// AnalyzeKernelAnalytic is AnalyzeKernel with the per-structure memory
// access counts produced by the analytic engine instead of the CGPMAC
// estimators — the engine=analytic path to a DVF report.
func AnalyzeKernelAnalytic(k Kernel, cfg CacheConfig, rate FIT) (*Report, error) {
	info, err := experiments.RunUntraced(k)
	if err != nil {
		return nil, err
	}
	return AnalyzeRun(k, info, cfg, rate, true)
}

// VerifyKernelAnalytic compares the analytic engine against the sequential
// cache simulator for one kernel and cache — the engine's live
// differential (dvf-verify -engine analytic).
func VerifyKernelAnalytic(k Kernel, cfg CacheConfig) ([]AnalyticRow, error) {
	rows, _, err := experiments.VerifyKernelAnalytic(k, cfg)
	return rows, err
}

// AnalyzeSource parses, checks and evaluates an extended-Aspen model from
// source text. opts may override the machine description.
func AnalyzeSource(src string, opts ...aspen.Option) (*aspen.Evaluation, error) {
	m, err := aspen.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := aspen.Check(m); err != nil {
		return nil, err
	}
	return aspen.Evaluate(m, opts...)
}

// AnalyzeModel evaluates an already-parsed extended-Aspen model.
func AnalyzeModel(m *aspen.Model, opts ...aspen.Option) (*aspen.Evaluation, error) {
	if err := aspen.Check(m); err != nil {
		return nil, err
	}
	return aspen.Evaluate(m, opts...)
}

// SelectProtection evaluates the Table VII mechanisms for a structure and
// returns the cheapest one (by full-strength residual FIT being highest,
// i.e. weakest sufficient protection) whose best operating point meets the
// DVF target — the "given a pre-defined DVF target" scenario of
// Section III-A. It returns an error when even chipkill cannot meet it.
func SelectProtection(baseHours float64, sizeBytes int64, nha, target float64) (dvf.ECC, dvf.SweepPoint, error) {
	degr := experiments.Fig7Degradations()
	// Weakest first: no protection, SECDED, chipkill.
	for _, mech := range []dvf.ECC{dvf.NoECC, dvf.SECDED, dvf.Chipkill} {
		points, err := mech.Sweep(baseHours, sizeBytes, nha, degr)
		if err != nil {
			return dvf.ECC{}, dvf.SweepPoint{}, err
		}
		best, err := dvf.MinPoint(points)
		if err != nil {
			return dvf.ECC{}, dvf.SweepPoint{}, err
		}
		if dvf.MeetsTarget(best, target) {
			return mech, best, nil
		}
	}
	return dvf.ECC{}, dvf.SweepPoint{}, fmt.Errorf(
		"core: no Table VII mechanism reaches DVF target %g", target)
}
