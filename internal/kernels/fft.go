package kernels

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/patterns"
	"github.com/resilience-models/dvf/internal/trace"
)

// FT is the 1-D FFT kernel: an in-place, iterative radix-2 Cooley-Tukey
// transform over a complex array X, matching the paper's "segment of codes
// from the NPB FT benchmark that conducts a 1D FFT computation". X is the
// single major data structure; its accesses follow the template-based
// pattern (a bit-reversal permutation followed by log2(n) butterfly passes,
// each a full traversal of the array).
//
// Twiddle factors are computed on the fly, so the working set is exactly
// the 16-byte-per-element array — the paper's "33KB" working set at n=2048.
type FT struct {
	N      int // transform length (power of two)
	Rounds int // forward transforms performed; 0 means 1
}

// NewFT returns an FT kernel of length n.
func NewFT(n int) *FT { return &FT{N: n} }

// Name implements Kernel.
func (*FT) Name() string { return "FT" }

// Class implements Kernel (Table II).
func (*FT) Class() string { return "Spectral methods" }

// PatternSummary implements Kernel (Table II).
func (*FT) PatternSummary() string { return "Template-based" }

// Validate reports configuration errors.
func (f *FT) Validate() error {
	if f.N < 4 || f.N&(f.N-1) != 0 {
		return fmt.Errorf("fft: n=%d must be a power of two >= 4", f.N)
	}
	if f.Rounds < 0 {
		return fmt.Errorf("fft: rounds=%d must be non-negative", f.Rounds)
	}
	return nil
}

const ftElemSize = 16 // complex128

// Run executes the transform(s).
func (f *FT) Run(sink trace.Consumer) (*RunInfo, error) {
	return f.run(sink, nil)
}

// RunInjected implements Injectable: it executes the transform with a
// single bit flip armed against the array X.
func (f *FT) RunInjected(fault Fault, sink trace.Consumer) (*RunInfo, error) {
	if err := fault.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(func() (*RunInfo, error) { return f.run(sink, &fault) })
}

func (f *FT) run(sink trace.Consumer, fault *Fault) (*RunInfo, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	rounds := f.Rounds
	if rounds == 0 {
		rounds = 1
	}
	n := f.N
	var inj *injector
	x := make([]complex128, n)
	if fault != nil {
		if fault.Structure != "X" {
			return nil, fmt.Errorf("fft: no injectable structure %q", fault.Structure)
		}
		inj = newInjector(sink, *fault, complex128Flipper(x))
		sink = inj
	}
	m := newMemory(sink)
	reg := m.alloc("X", int64(n)*ftElemSize)
	for i := range x {
		x[i] = complex(math.Sin(0.3*float64(i)), 0)
	}

	logN := bits.TrailingZeros(uint(n))
	var flops int64
	for round := 0; round < rounds; round++ {
		flops += transform(m.mem, reg, x)
	}

	if inj != nil {
		if err := inj.finish(); err != nil {
			return nil, err
		}
	}
	var checksum float64
	for _, v := range x {
		checksum += real(v)*real(v) + imag(v)*imag(v)
	}
	return &RunInfo{
		Kernel: f.Name(),
		Structures: []Structure{
			{Name: "X", Bytes: int64(n) * ftElemSize, ID: int32(reg.ID)},
		},
		Refs:  m.mem.Refs(),
		Flops: flops,
		Measured: map[string]float64{
			"n":      float64(n),
			"passes": float64(logN + 1),
			"rounds": float64(rounds),
		},
		Checksum: checksum,
	}, nil
}

// transform runs one forward FFT of x in place, the bit-reversal
// permutation and then log2(n) butterfly passes, tracing every element
// access through mem as region reg. It returns the flops performed.
func transform(mem *trace.Memory, reg trace.Region, x []complex128) (flops int64) {
	n := len(x)
	logN := bits.TrailingZeros(uint(n))
	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(bits.Reverse32(uint32(i)) >> (32 - logN))
		if i < j {
			mem.LoadN(reg, i, ftElemSize)
			mem.LoadN(reg, j, ftElemSize)
			x[i], x[j] = x[j], x[i]
			mem.StoreN(reg, i, ftElemSize)
			mem.StoreN(reg, j, ftElemSize)
		}
	}
	// Butterfly passes.
	for size := 2; size <= n; size *= 2 {
		half := size / 2
		ang := -2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for j := 0; j < half; j++ {
				a := start + j
				b := a + half
				mem.LoadN(reg, a, ftElemSize)
				mem.LoadN(reg, b, ftElemSize)
				t := w * x[b]
				x[b] = x[a] - t
				x[a] = x[a] + t
				mem.StoreN(reg, a, ftElemSize)
				mem.StoreN(reg, b, ftElemSize)
				w *= wStep
				flops += 10
			}
		}
	}
	return flops
}

// Models returns the template-based model for X: the exact bit-reversal +
// butterfly access template through the two-step reuse-distance algorithm,
// the butterflies one cache-line run at a time.
// This captures the paper's Figure 5(e) behaviour — once the cache cannot
// hold the whole array, every pass misses and the access count (and DVF)
// jumps suddenly.
func (f *FT) Models(info *RunInfo) ([]ModelSpec, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	k := *f
	est := patterns.Func{
		Name:  "template",
		Bytes: int64(f.N) * ftElemSize,
		F: func(c cache.Config) (float64, error) {
			return float64(k.templateWalk(c).Misses()), nil
		},
	}
	return []ModelSpec{{Structure: "X", Estimator: est}}, nil
}

// templateWalk feeds the transform's element template for cache c
// through a TemplateCounter and returns the counter.
func (f *FT) templateWalk(c cache.Config) *patterns.TemplateCounter {
	rounds := f.Rounds
	if rounds == 0 {
		rounds = 1
	}
	n := f.N
	logN := bits.TrailingZeros(uint(n))
	ctr := patterns.NewTemplateCounter(c.Lines())
	// The butterflies walk j by line runs (see LineRun); a bit-reversal
	// swap is one step of its own.
	run := patterns.NewLineRun(ctr, c.LineSize)
	add := func(elem int) { run.Add(int64(elem)*ftElemSize, ftElemSize, ftElemSize) }
	for round := 0; round < rounds; round++ {
		for i := 0; i < n; i++ {
			j := int(bits.Reverse32(uint32(i)) >> (32 - logN))
			if i < j {
				run.Start(1)
				add(i)
				add(j)
				add(i)
				add(j)
				run.End()
			}
		}
		for size := 2; size <= n; size *= 2 {
			half := size / 2
			for start := 0; start < n; start += size {
				for j := 0; j < half; {
					run.Start(half - j)
					add(start + j)
					add(start + j + half)
					add(start + j)
					add(start + j + half)
					j += run.End()
				}
			}
		}
	}
	return ctr
}

// AccessPattern implements PatternSource: per round, the bit-reversal
// permutation followed by the log2(n) butterfly passes over X.
func (f *FT) AccessPattern() (*analytic.Descriptor, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	rounds := f.Rounds
	if rounds == 0 {
		rounds = 1
	}
	return &analytic.Descriptor{
		Kernel: f.Name(),
		Regions: []analytic.Region{
			{Name: "X", Bytes: int64(f.N) * ftElemSize, ElemSize: ftElemSize},
		},
		Phases: []analytic.Phase{analytic.Repeat{Count: rounds, Body: []analytic.Phase{
			analytic.BitReverse{Region: "X", N: f.N},
			analytic.Butterflies{Region: "X", N: f.N},
		}}},
	}, nil
}
