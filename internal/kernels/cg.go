package kernels

import (
	"fmt"
	"math"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/mathx"
	"github.com/resilience-models/dvf/internal/patterns"
	"github.com/resilience-models/dvf/internal/trace"
)

// CG is the conjugate gradient kernel of Algorithm 4, solving A x = b for
// a symmetric positive-definite n-by-n matrix stored dense (the paper's
// reference implementation [3] uses a dense double matrix). The major data
// structures are A, x, p and r, exactly as in Table II; the auxiliary
// vector q = A*p is traced but, like the paper, not treated as a major
// structure.
//
// The test matrix is A = tridiag(-1, 2+sigma, -1) + P with sigma = 240/n
// and P a small deterministic symmetric banded perturbation (magnitude
// 0.15*sigma on bands +-2 and +-3). Gershgorin keeps A SPD, the condition
// number grows roughly linearly in n (so CG's iteration count grows like
// sqrt(n)), and the tridiagonal part has an exactly computable inverse that
// PCG uses as its preconditioner.
type CG struct {
	N        int     // matrix dimension
	MaxIters int     // iteration cap; 0 means 2*N
	Tol      float64 // relative residual tolerance; 0 means run MaxIters
	// TemplateP selects the pseudocode-template model for the direction
	// vector p. Inside the matvec, p's traversals interleave element-wise
	// with the streamed matrix row; at cache-capacity boundaries this
	// interleaving leaks a few blocks per row in a way the closed-form
	// reuse equations cannot see, so the verification-grade model replays
	// the Algorithm 4 access template instead (the paper's CG program
	// likewise marks A and p with the template pattern code 't'). The
	// cheaper closed-form reuse model is used when this is false.
	TemplateP bool
}

// NewCG returns a CG kernel with a fixed iteration count (the paper's
// verification and profiling runs execute the major computation loop a
// fixed number of times rather than to convergence) and the
// verification-grade template model for p.
func NewCG(n, iters int) *CG {
	return &CG{N: n, MaxIters: iters, TemplateP: true}
}

// NewCGToConvergence returns a CG kernel that iterates until the relative
// residual drops below tol (used by the Figure 6 use case). It uses the
// closed-form models throughout, since the use-case sweep only needs the
// working-set-scale behaviour.
func NewCGToConvergence(n int, tol float64) *CG {
	return &CG{N: n, MaxIters: 2 * n, Tol: tol}
}

// Name implements Kernel.
func (*CG) Name() string { return "CG" }

// Class implements Kernel (Table II).
func (*CG) Class() string { return "Sparse linear algebra" }

// PatternSummary implements Kernel (Table II).
func (*CG) PatternSummary() string { return "Template+Reuse+Streaming" }

// Validate reports configuration errors.
func (c *CG) Validate() error {
	if c.N <= 1 {
		return fmt.Errorf("cg: n=%d must exceed 1", c.N)
	}
	if c.MaxIters < 0 {
		return fmt.Errorf("cg: max iterations %d must be non-negative", c.MaxIters)
	}
	return nil
}

// sigmaShift returns the diagonal shift sigma = 240/n that sets the test
// matrix's condition number (and hence CG's iteration growth).
func sigmaShift(n int) float64 { return 240 / float64(n) }

// fillTestMatrix populates a (untraced: initialization is outside the
// modeled region) with the SPD test matrix described on CG.
func fillTestMatrix(a *tmat) {
	n := a.n
	sigma := sigmaShift(n)
	eps := 0.15 * sigma
	for i := 0; i < n; i++ {
		a.set(i, i, 2+sigma)
		if i+1 < n {
			a.set(i, i+1, -1)
			a.set(i+1, i, -1)
		}
		for _, band := range []int{2, 3} {
			if i+band < n {
				v := eps * math.Cos(float64(3*i+band))
				a.set(i, i+band, v)
				a.set(i+band, i, v)
			}
		}
	}
}

// fillRHS sets b to a deterministic smooth right-hand side.
func fillRHS(b []float64) {
	for i := range b {
		b[i] = math.Sin(0.1*float64(i)) + 1
	}
}

// Run executes the CG iteration of Algorithm 4.
func (c *CG) Run(sink trace.Consumer) (*RunInfo, error) {
	return c.run(sink, nil)
}

// RunInjected implements Injectable: it executes the solver with a single
// bit flip armed against one of A, x, p or r.
func (c *CG) RunInjected(fault Fault, sink trace.Consumer) (*RunInfo, error) {
	if err := fault.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(func() (*RunInfo, error) { return c.run(sink, &fault) })
}

func (c *CG) run(sink trace.Consumer, fault *Fault) (*RunInfo, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	maxIters := c.MaxIters
	if maxIters == 0 {
		maxIters = 2 * c.N
	}
	var (
		inj    *injector
		holder *flipHolder
	)
	if fault != nil {
		holder = &flipHolder{}
		inj = newInjector(sink, *fault, holder.flip)
		sink = inj
	}
	m := newMemory(sink)
	n := c.N
	a := newTmat(m, "A", n)
	x := newTvec(m, "x", n)
	p := newTvec(m, "p", n)
	r := newTvec(m, "r", n)
	q := newTvec(m, "q", n) // auxiliary q = A*p
	if holder != nil {
		flips := map[string]flipper{
			"A": float64Flipper(a.data),
			"x": float64Flipper(x.data),
			"p": float64Flipper(p.data),
			"r": float64Flipper(r.data),
		}
		flip, ok := flips[fault.Structure]
		if !ok {
			return nil, fmt.Errorf("cg: no injectable structure %q", fault.Structure)
		}
		holder.f = flip
	}

	fillTestMatrix(a)
	fillRHS(r.data) // x0 = 0  =>  r0 = b
	copy(p.data, r.data)
	bNorm := norm2(r)

	var flops int64
	rho := 0.0
	for i := 0; i < n; i++ { // rho = r.r (traced: part of the solver loop)
		ri := r.load(i)
		rho += ri * ri
	}
	flops += int64(2 * n)
	// Every iteration is one period, the first one included.
	m.mem.Period()

	iters := 0
	for iters < maxIters {
		// q = A p ; alpha = rho / (p.q)
		flops += matVec(q, p, a)
		pq, fl := dot(p, q)
		flops += fl
		if pq == 0 {
			break
		}
		alpha := rho / pq
		flops += axpy(alpha, p, x)  // x += alpha p
		flops += axpy(-alpha, q, r) // r -= alpha q
		rhoNew := 0.0
		for i := 0; i < n; i++ {
			ri := r.load(i)
			rhoNew += ri * ri
		}
		flops += int64(2 * n)
		beta := rhoNew / rho
		rho = rhoNew
		flops += xpay(r, beta, p) // p = r + beta p
		iters++
		m.mem.Period()
		if c.Tol > 0 && math.Sqrt(rho) <= c.Tol*bNorm {
			break
		}
	}
	if inj != nil {
		if err := inj.finish(); err != nil {
			return nil, err
		}
	}
	if err := m.mem.Err(); err != nil {
		return nil, fmt.Errorf("cg: %w", err)
	}

	return &RunInfo{
		Kernel: c.Name(),
		Structures: []Structure{
			{Name: "A", Bytes: int64(n) * int64(n) * elem8, ID: int32(a.reg.ID)},
			{Name: "x", Bytes: int64(n) * elem8, ID: int32(x.reg.ID)},
			{Name: "p", Bytes: int64(n) * elem8, ID: int32(p.reg.ID)},
			{Name: "r", Bytes: int64(n) * elem8, ID: int32(r.reg.ID)},
		},
		Refs:     m.mem.Refs(),
		Flops:    flops,
		Measured: map[string]float64{"iters": float64(iters), "n": float64(n)},
		Checksum: norm2(x),
	}, nil
}

// Models returns the CGPMAC estimators for A, x, p and r, matching the
// paper's access-order string r(Ap)p(xp)(Ap)r(rp): A is re-streamed each
// iteration (reuse against the vectors), p is re-traversed once per matrix
// row (reuse against one row of A), and x and r are re-traversed once or
// a few times per iteration (reuse against the full working set).
func (c *CG) Models(info *RunInfo) ([]ModelSpec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	iters := int(info.Measured["iters"])
	if iters < 1 {
		return nil, fmt.Errorf("cg: run info lacks a positive iteration count")
	}
	n := c.N
	bytesA := int64(n) * int64(n) * elem8
	bytesVec := int64(n) * elem8

	var pModel patterns.Estimator
	if c.TemplateP {
		var err error
		if pModel, err = c.templateModel(iters, "p"); err != nil {
			return nil, err
		}
	} else {
		pModel = cgVectorModel(cgVectorParams{
			bytes: bytesVec,
			// Within the matvec, consecutive traversals of p are separated
			// by one streamed row of A plus one element of q.
			smallInterf: int64(n)*elem8 + elem8,
			smallReuses: (n + 2) * iters,
		})
	}
	return []ModelSpec{
		{Structure: "A", Estimator: patterns.Reuse{
			TargetBytes: bytesA,
			OtherBytes:  5 * bytesVec, // x, p, r, q and the rhs working set
			Reuses:      iters - 1,
		}},
		{Structure: "x", Estimator: patterns.Reuse{
			TargetBytes: bytesVec,
			OtherBytes:  bytesA + 4*bytesVec, // a full iteration passes between x touches
			Reuses:      iters - 1,
		}},
		{Structure: "p", Estimator: pModel},
		{Structure: "r", Estimator: cgVectorModel(cgVectorParams{
			bytes: bytesVec,
			// r's re-traversals inside an iteration (residual update, rho,
			// direction update) interleave only with q or p, which coexist
			// with r in the cache; the expensive reuse is across the
			// iteration boundary, behind the full stream of A.
			smallInterf: bytesVec,
			smallReuses: 2 * iters,
			bigInterf:   bytesA + 3*bytesVec,
			bigReuses:   iters,
		})},
	}, nil
}

// templateModel counts p's misses in the Algorithm 4 access template
// (cgTemplate). The template is derived from the pseudocode alone (loop
// structure and access order), exactly the CGPMAC workflow: no
// instruction-level trace is involved, but the element-level
// interleaving — which the closed-form equations abstract away — is
// kept. p is the one structure it models.
func (c *CG) templateModel(iters int, structure string) (patterns.Estimator, error) {
	if structure != "p" {
		return nil, fmt.Errorf("cg: template model has no structure %q", structure)
	}
	t := newCGTemplate(c.N)
	return patterns.Func{
		Name:  "template",
		Bytes: int64(c.N) * elem8,
		F: func(cfg cache.Config) (float64, error) {
			if err := cfg.Validate(); err != nil {
				return 0, err
			}
			return float64(t.pMisses(cfg, iters)), nil
		},
	}, nil
}

// cgTemplateRegions lays out the template's structures A, x, p, r and q,
// in that order, as Run's registry does.
func cgTemplateRegions(n int) []trace.Region {
	reg := trace.NewRegistry()
	reg.Alloc("A", uint64(n)*uint64(n)*elem8)
	for _, name := range []string{"x", "p", "r", "q"} {
		reg.Alloc(name, uint64(n)*elem8)
	}
	return reg.Regions()
}

// cgVectorParams describes the composite reuse behaviour of a CG vector:
// frequent reuses against small interference plus occasional reuses against
// the streamed matrix.
type cgVectorParams struct {
	bytes       int64
	smallInterf int64
	smallReuses int
	bigInterf   int64
	bigReuses   int
}

// cgVectorModel composes two Reuse estimates sharing one compulsory load.
func cgVectorModel(p cgVectorParams) patterns.Estimator {
	return patterns.Func{
		Name:  "reuse",
		Bytes: p.bytes,
		F: func(c cache.Config) (float64, error) {
			blocks := float64(mathx.CeilDiv(p.bytes, int64(c.LineSize)))
			total := blocks
			if p.smallReuses > 0 {
				reload, err := (patterns.Reuse{
					TargetBytes: p.bytes,
					OtherBytes:  p.smallInterf,
				}).ReloadPerReuse(c)
				if err != nil {
					return 0, err
				}
				total += reload * float64(p.smallReuses)
			}
			if p.bigReuses > 0 {
				reload, err := (patterns.Reuse{
					TargetBytes: p.bytes,
					OtherBytes:  p.bigInterf,
				}).ReloadPerReuse(c)
				if err != nil {
					return 0, err
				}
				total += reload * float64(p.bigReuses)
			}
			return total, nil
		},
	}
}

// AccessPattern implements PatternSource: the Algorithm 4 phase sequence
// at a fixed iteration count — initial rho, then per iteration the dense
// mat-vec, p.q dot product, the two axpy updates, the residual norm and
// the direction update, each listing its regions in the body's
// first-access order. A convergence-bounded configuration (Tol > 0) has
// a data-dependent trip count and cannot export a static descriptor.
func (c *CG) AccessPattern() (*analytic.Descriptor, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Tol > 0 {
		return nil, fmt.Errorf("cg: convergence-bounded run has no static access pattern")
	}
	iters := c.MaxIters
	if iters == 0 {
		iters = 2 * c.N
	}
	n := c.N
	vec := func(name string) analytic.Region {
		return analytic.Region{Name: name, Bytes: int64(n) * elem8, ElemSize: elem8}
	}
	walk := func(name string) analytic.Traversal {
		return analytic.Traversal{Region: name, StrideElems: 1, Count: n}
	}
	return &analytic.Descriptor{
		Kernel: c.Name(),
		Regions: []analytic.Region{
			{Name: "A", Bytes: int64(n) * int64(n) * elem8, ElemSize: elem8},
			vec("x"), vec("p"), vec("r"), vec("q"),
		},
		Phases: []analytic.Phase{
			analytic.Stream{Streams: []analytic.Traversal{walk("r")}}, // rho = r.r
			analytic.Repeat{Count: iters, Body: []analytic.Phase{
				analytic.MatVec{Matrix: "A", Vec: "p", Out: "q", N: n},
				analytic.Stream{Streams: []analytic.Traversal{walk("p"), walk("q")}}, // p.q
				analytic.Stream{Streams: []analytic.Traversal{walk("x"), walk("p")}}, // x += alpha p
				analytic.Stream{Streams: []analytic.Traversal{walk("r"), walk("q")}}, // r -= alpha q
				analytic.Stream{Streams: []analytic.Traversal{walk("r")}},            // rho' = r.r
				analytic.Stream{Streams: []analytic.Traversal{walk("r"), walk("p")}}, // p = r + beta p
			}},
		},
	}, nil
}
