package kernels

import (
	"fmt"
	"math"

	"github.com/resilience-models/dvf/internal/patterns"
	"github.com/resilience-models/dvf/internal/trace"
)

// PCG is the preconditioned conjugate gradient of Algorithm 5, the
// algorithm-optimization use case of Section V-A. Relative to CG it adds
// the auxiliary matrix M (the preconditioner inverse M^-1) and the
// auxiliary vector z, trading a larger working set and more per-iteration
// memory traffic for faster convergence.
//
// The preconditioner is the exact inverse of the tridiagonal part of the
// CG test matrix. That inverse is symmetric, so M is stored packed (upper
// triangle only, n(n+1)/2 elements) and applied with a symmetric packed
// matrix-vector product — halving M's footprint relative to a naive dense
// copy, as production solvers do. Because the remaining perturbation in A
// is small relative to the diagonal shift, PCG converges in a handful of
// iterations at every problem size, while plain CG's iteration count grows
// with n — the trade-off the paper's Figure 6 explores.
type PCG struct {
	N        int
	MaxIters int
	Tol      float64
}

// NewPCGToConvergence returns a PCG kernel that iterates to the relative
// residual tolerance tol.
func NewPCGToConvergence(n int, tol float64) *PCG {
	return &PCG{N: n, MaxIters: 2 * n, Tol: tol}
}

// Name implements Kernel.
func (*PCG) Name() string { return "PCG" }

// Class implements Kernel.
func (*PCG) Class() string { return "Sparse linear algebra" }

// PatternSummary implements Kernel.
func (*PCG) PatternSummary() string { return "Template+Reuse+Streaming" }

// Validate reports configuration errors.
func (p *PCG) Validate() error {
	if p.N <= 1 {
		return fmt.Errorf("pcg: n=%d must exceed 1", p.N)
	}
	if p.MaxIters < 0 {
		return fmt.Errorf("pcg: max iterations %d must be non-negative", p.MaxIters)
	}
	return nil
}

// packedSym is an instrumented symmetric matrix stored as its upper
// triangle in row-major packed layout: element (i, j) with i <= j lives at
// index i*n - i*(i-1)/2 + (j-i).
type packedSym struct {
	data []float64
	n    int
	reg  trace.Region
	mem  *trace.Memory
}

func newPackedSym(m *memory, name string, n int) *packedSym {
	count := n * (n + 1) / 2
	return &packedSym{
		data: make([]float64, count),
		n:    n,
		reg:  m.alloc(name, int64(count)*elem8),
		mem:  m.mem,
	}
}

func (s *packedSym) bytes() int64 { return int64(len(s.data)) * elem8 }

func (s *packedSym) idx(i, j int) int { return i*s.n - i*(i-1)/2 + (j - i) }

func (s *packedSym) set(i, j int, v float64) { s.data[s.idx(i, j)] = v }

func (s *packedSym) load(i, j int) float64 {
	e := s.idx(i, j)
	s.mem.LoadN(s.reg, e, elem8)
	return s.data[e]
}

// symMatVec computes dst = S * src for the packed symmetric matrix: one
// streaming pass over the triangle, with src and dst each re-traversed
// once per row.
func symMatVec(dst, src *tvec, s *packedSym) int64 {
	n := s.n
	for i := 0; i < n; i++ {
		dst.data[i] = 0
	}
	var flops int64
	for i := 0; i < n; i++ {
		sum := dst.data[i]
		ri := src.load(i)
		for j := i; j < n; j++ {
			v := s.load(i, j)
			sum += v * src.data[j]
			if j > i {
				src.mem.LoadN(src.reg, j, elem8)
				dst.data[j] += v * ri
				dst.mem.StoreN(dst.reg, j, elem8)
			}
			flops += 4
		}
		dst.store(i, sum)
	}
	return flops
}

// Run executes Algorithm 5.
func (p *PCG) Run(sink trace.Consumer) (*RunInfo, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxIters := p.MaxIters
	if maxIters == 0 {
		maxIters = 2 * p.N
	}
	m := newMemory(sink)
	n := p.N
	a := newTmat(m, "A", n)
	minv := newPackedSym(m, "M", n)
	x := newTvec(m, "x", n)
	pv := newTvec(m, "p", n)
	r := newTvec(m, "r", n)
	z := newTvec(m, "z", n)
	q := newTvec(m, "q", n)

	fillTestMatrix(a)
	// Build M^-1 = inverse of the tridiagonal part, column by column via
	// the Thomas algorithm (untraced setup, like the paper's).
	sigma := sigmaShift(n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		thomasSolve(2+sigma, -1, n, j, col)
		for i := 0; i <= j; i++ {
			minv.set(i, j, col[i])
		}
	}

	fillRHS(r.data) // x0 = 0  =>  r0 = b
	bNorm := norm2(r)

	var flops int64
	flops += symMatVec(z, r, minv) // z0 = M^-1 r0
	for i := 0; i < n; i++ {
		pv.data[i] = z.data[i] // p0 = z0
		pv.mem.StoreN(pv.reg, i, elem8)
	}
	rz, fl := dot(r, z)
	flops += fl

	iters := 0
	for iters < maxIters {
		flops += matVec(q, pv, a)
		pq, fl := dot(pv, q)
		flops += fl
		if pq == 0 {
			break
		}
		alpha := rz / pq
		flops += axpy(alpha, pv, x)
		flops += axpy(-alpha, q, r)
		iters++
		if p.Tol > 0 {
			res := 0.0
			for _, v := range r.data {
				res += v * v
			}
			if math.Sqrt(res) <= p.Tol*bNorm {
				break
			}
		}
		flops += symMatVec(z, r, minv) // z = M^-1 r
		rzNew, fl := dot(r, z)
		flops += fl
		beta := rzNew / rz
		rz = rzNew
		flops += xpay(z, beta, pv) // p = z + beta p
	}

	return &RunInfo{
		Kernel: p.Name(),
		Structures: []Structure{
			{Name: "A", Bytes: int64(n) * int64(n) * elem8, ID: int32(a.reg.ID)},
			{Name: "M", Bytes: minv.bytes(), ID: int32(minv.reg.ID)},
			{Name: "x", Bytes: int64(n) * elem8, ID: int32(x.reg.ID)},
			{Name: "p", Bytes: int64(n) * elem8, ID: int32(pv.reg.ID)},
			{Name: "r", Bytes: int64(n) * elem8, ID: int32(r.reg.ID)},
			{Name: "z", Bytes: int64(n) * elem8, ID: int32(z.reg.ID)},
		},
		Refs:     m.mem.Refs(),
		Flops:    flops,
		Measured: map[string]float64{"iters": float64(iters), "n": float64(n)},
		Checksum: norm2(x),
	}, nil
}

// Models mirrors CG.Models with the two additional structures: M streams
// once per iteration like A, and z behaves like r.
func (p *PCG) Models(info *RunInfo) ([]ModelSpec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	iters := int(info.Measured["iters"])
	if iters < 1 {
		return nil, fmt.Errorf("pcg: run info lacks a positive iteration count")
	}
	n := p.N
	bytesA := int64(n) * int64(n) * elem8
	bytesM := int64(n) * int64(n+1) / 2 * elem8
	bytesVec := int64(n) * elem8
	return []ModelSpec{
		{Structure: "A", Estimator: patterns.Reuse{
			TargetBytes: bytesA,
			OtherBytes:  bytesM + 6*bytesVec, // M streams between A's traversals
			Reuses:      iters - 1,
		}},
		{Structure: "M", Estimator: patterns.Reuse{
			TargetBytes: bytesM,
			OtherBytes:  bytesA + 6*bytesVec,
			Reuses:      iters - 1,
		}},
		{Structure: "x", Estimator: patterns.Reuse{
			TargetBytes: bytesVec,
			OtherBytes:  bytesA + bytesM + 5*bytesVec,
			Reuses:      iters - 1,
		}},
		{Structure: "p", Estimator: cgVectorModel(cgVectorParams{
			bytes:       bytesVec,
			smallInterf: int64(n)*elem8 + elem8,
			smallReuses: (n + 2) * iters,
			bigInterf:   bytesM + 4*bytesVec, // M streams before p's update
			bigReuses:   iters,
		})},
		{Structure: "r", Estimator: cgVectorModel(cgVectorParams{
			bytes:       bytesVec,
			smallInterf: int64(n)*elem8 + elem8, // r re-traversed inside z = M^-1 r
			smallReuses: (n + 1) * iters,
			bigInterf:   bytesA + 3*bytesVec,
			bigReuses:   iters - 1,
		})},
		{Structure: "z", Estimator: cgVectorModel(cgVectorParams{
			bytes:       bytesVec,
			smallInterf: int64(n)*elem8 + elem8, // z re-traversed inside the precond apply
			smallReuses: (n + 1) * iters,
			bigInterf:   bytesA + 3*bytesVec, // A streams between z's uses
			bigReuses:   iters - 1,
		})},
	}, nil
}
