package kernels

import (
	"math"

	"github.com/resilience-models/dvf/internal/trace"
)

// The traced linear-algebra layer: vectors and dense matrices whose every
// element access is reported to the trace memory. The CG/PCG kernels are
// written against these types so the algorithm code reads like the
// pseudocode of Algorithms 4 and 5 while still emitting a faithful
// reference stream.

// tvec is an instrumented dense vector.
type tvec struct {
	data []float64
	reg  trace.Region
	mem  *trace.Memory
}

func newTvec(m *memory, name string, n int) *tvec {
	return &tvec{
		data: make([]float64, n),
		reg:  m.alloc(name, int64(n)*elem8),
		mem:  m.mem,
	}
}

func (v *tvec) len() int { return len(v.data) }

func (v *tvec) load(i int) float64 {
	v.mem.LoadN(v.reg, i, elem8)
	return v.data[i]
}

func (v *tvec) store(i int, x float64) {
	v.data[i] = x
	v.mem.StoreN(v.reg, i, elem8)
}

// tmat is an instrumented dense row-major matrix.
type tmat struct {
	data []float64
	n    int // square dimension
	reg  trace.Region
	mem  *trace.Memory
}

func newTmat(m *memory, name string, n int) *tmat {
	return &tmat{
		data: make([]float64, n*n),
		n:    n,
		reg:  m.alloc(name, int64(n)*int64(n)*elem8),
		mem:  m.mem,
	}
}

func (a *tmat) load(i, j int) float64 {
	a.mem.LoadN(a.reg, i*a.n+j, elem8)
	return a.data[i*a.n+j]
}

// set writes without tracing; used during untimed initialization, which the
// paper excludes from the analysis ("we focus on the major computation
// parts ... and ignore initialization and finalization phases").
func (a *tmat) set(i, j int, x float64) {
	a.data[i*a.n+j] = x
}

// matVec computes dst = a * src with the canonical dense access order:
// per row, the row of a is streamed and src is fully re-traversed. When
// no consumer needs the references one at a time (trace.Memory's
// TakesGroups), each row's inner loop is one strided group, emitted
// before the row is summed on the raw slices in the same order.
func matVec(dst, src *tvec, a *tmat) int64 {
	n := a.n
	var flops int64
	if a.mem.TakesGroups() {
		row := [2]trace.Strided{
			{Region: a.reg, Size: elem8, Stride: elem8},
			{Region: src.reg, Size: elem8, Stride: elem8},
		}
		x := src.data[:n]
		for i := 0; i < n; i++ {
			row[0].Off = uint64(i*n) * elem8
			a.mem.Strided(row[:], n)
			sum := 0.0
			for j, v := range a.data[i*n : i*n+n] {
				sum += v * x[j]
			}
			dst.store(i, sum)
			flops += int64(2 * n)
		}
		return flops
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += a.load(i, j) * src.load(j)
		}
		dst.store(i, sum)
		flops += int64(2 * n)
	}
	return flops
}

// dot returns the inner product of two traced vectors.
func dot(a, b *tvec) (float64, int64) {
	sum := 0.0
	for i := 0; i < a.len(); i++ {
		sum += a.load(i) * b.load(i)
	}
	return sum, int64(2 * a.len())
}

// axpy computes y = y + alpha*x.
func axpy(alpha float64, x, y *tvec) int64 {
	for i := 0; i < y.len(); i++ {
		y.store(i, y.load(i)+alpha*x.load(i))
	}
	return int64(2 * y.len())
}

// xpay computes y = x + alpha*y (the CG direction update p = r + beta*p).
func xpay(x *tvec, alpha float64, y *tvec) int64 {
	for i := 0; i < y.len(); i++ {
		y.store(i, x.load(i)+alpha*y.load(i))
	}
	return int64(2 * y.len())
}

// norm2 returns the Euclidean norm of the untraced backing data (a pure
// convergence check, not part of the modeled computation).
func norm2(v *tvec) float64 {
	sum := 0.0
	for _, x := range v.data {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// thomasSolve solves the symmetric tridiagonal system
// tridiag(off, diag, off) * x = e_col into dst, untraced. It is used once
// per column to build the dense preconditioner inverse M^-1 for PCG; the
// paper's PCG likewise treats forming M as setup outside the modeled loop.
func thomasSolve(diag, off float64, n, col int, dst []float64) {
	c := make([]float64, n) // modified superdiagonal
	d := make([]float64, n) // modified rhs
	b := make([]float64, n) // rhs = unit vector e_col
	b[col] = 1
	c[0] = off / diag
	d[0] = b[0] / diag
	for i := 1; i < n; i++ {
		m := diag - off*c[i-1]
		if i < n-1 {
			c[i] = off / m
		}
		d[i] = (b[i] - off*d[i-1]) / m
	}
	dst[n-1] = d[n-1]
	for i := n - 2; i >= 0; i-- {
		dst[i] = d[i] - c[i]*dst[i+1]
	}
}
