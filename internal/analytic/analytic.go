// Package analytic is the trace-free DVF engine: it derives per-structure
// main-memory access counts for the affine kernels (VM, CG, MG, FT)
// symbolically, from the loop structure alone, without generating or
// replaying a memory-reference trace.
//
// A kernel whose access stream is affine exports a Descriptor — an ordered
// program of loop-nest phases over its data regions (the same information
// the pseudocode templates in internal/kernels encode, lifted to a small
// IR). Descriptors are written by hand; a test expands each back into
// references and checks it against its kernel's trace. Solve walks that program once per cache geometry and computes, per
// phase, the reuse distance of every line the phase touches:
//
//   - closed form where the loop nest makes distances uniform (streamed
//     traversals, the dense mat-vec inner loop, the middle and last FFT
//     butterfly passes, and the smoother's repeated rows from its second
//     stripe on, which are translates of gaps measured once), and
//   - a Fenwick-tree distinct-interval counter over segment-touch events
//     everywhere else: once per grid row or FFT line a phase enters
//     (against the timeline the earlier phases left) and, inside the
//     bit-reversal and the smoother's first two stripes, per reuse on a
//     tree local to the phase (see timeline).
//
// Stack distances become miss counts through a set-associativity
// correction (see missFracParts) instead of the sharp fully-associative
// capacity threshold, and the per-structure miss counts are exactly the
// N_ha inputs the DVF aggregation in internal/dvf consumes. On a
// conflict-free geometry no distance is measured at all: only first
// touches count. A solve costs microseconds for VM and CG and for every
// kernel on a conflict-free geometry, and a fraction of a millisecond
// for MG and FT elsewhere (their entered rows and lines still take one
// timeline query each), against the nanosecond-per-reference cost of
// batched replay — CG's verification trace alone is ~5M references.
//
// # Accuracy contract
//
// The solver is exact wherever every reuse distance is far from the cache
// capacity on both sides (everything hits or everything misses, which is
// where all Table IV configurations put the bundled kernels for most
// structures). Near capacity the set-associativity correction models the
// simulator's gradual leak, but phase-granular interval counting sums
// intervening footprints instead of intersecting them, so a small
// documented error remains; Tolerance returns the asserted per-kernel
// bound, and the differential wall in this package plus the live
// differential in dvf-verify -engine analytic enforce it against the
// sequential simulator for every affine kernel x bundled cache config.
package analytic

import "fmt"

// Region is one major data region of a descriptor (a trace.Registry
// allocation in the traced kernel). Region bases are 4096-aligned by the
// registry, so every region starts at set 0 of every Table IV geometry —
// the property the round-robin set-mapping correction relies on.
type Region struct {
	Name     string // structure name, e.g. "A", "p", "R"
	Bytes    int64  // footprint in bytes
	ElemSize int    // element width in bytes (8 for float64, 16 for complex128)
}

// Descriptor is the affine access program of one kernel: its data regions
// and the ordered phases of its modeled computation. Kernels whose loop
// bounds are static (fixed iteration counts, no data-dependent breaks)
// can export one; see kernels.PatternSource.
type Descriptor struct {
	Kernel  string
	Regions []Region
	Phases  []Phase
}

// Region returns the named region, or an error naming the kernel.
func (d *Descriptor) Region(name string) (Region, error) {
	for _, r := range d.Regions {
		if r.Name == name {
			return r, nil
		}
	}
	return Region{}, fmt.Errorf("analytic: %s has no region %q", d.Kernel, name)
}

// Validate reports structural errors in the descriptor.
func (d *Descriptor) Validate() error {
	if d.Kernel == "" {
		return fmt.Errorf("analytic: descriptor must name its kernel")
	}
	if len(d.Regions) == 0 {
		return fmt.Errorf("analytic: %s: descriptor has no regions", d.Kernel)
	}
	seen := make(map[string]bool, len(d.Regions))
	for _, r := range d.Regions {
		if r.Name == "" || r.Bytes <= 0 || r.ElemSize <= 0 {
			return fmt.Errorf("analytic: %s: malformed region %+v", d.Kernel, r)
		}
		if seen[r.Name] {
			return fmt.Errorf("analytic: %s: duplicate region %q", d.Kernel, r.Name)
		}
		seen[r.Name] = true
	}
	return validatePhases(d, d.Phases)
}

func validatePhases(d *Descriptor, phases []Phase) error {
	for _, p := range phases {
		if err := p.validate(d); err != nil {
			return err
		}
	}
	return nil
}

// Phase is one loop nest of a descriptor program. The concrete phase
// kinds below are the solver's vocabulary; each knows how to validate
// itself against the descriptor it appears in.
type Phase interface {
	validate(d *Descriptor) error
}

// Traversal is one strided stream within a Stream phase.
type Traversal struct {
	Region      string // region the stream walks
	StartElem   int    // first element index
	StrideElems int    // element stride (>= 1)
	Count       int    // trip count
}

// Stream is a loop whose body touches several regions in lockstep — the
// element-interleaved strided traversals of VM's triple stream and CG's
// vector phases (dot, axpy, xpay, rho). Streams lists the traversals in
// the body's first-access order.
type Stream struct {
	Streams []Traversal
}

func (p Stream) validate(d *Descriptor) error {
	if len(p.Streams) == 0 {
		return fmt.Errorf("analytic: %s: empty Stream phase", d.Kernel)
	}
	for _, t := range p.Streams {
		if _, err := d.Region(t.Region); err != nil {
			return err
		}
		if t.Count <= 0 || t.StrideElems <= 0 || t.StartElem < 0 {
			return fmt.Errorf("analytic: %s: malformed traversal %+v", d.Kernel, t)
		}
	}
	return nil
}

// MatVec is the dense matrix-vector product loop nest Out = Matrix * Vec:
// per row, the row of Matrix is streamed, Vec is fully re-traversed and
// one element of Out is stored — the loop that dominates CG.
type MatVec struct {
	Matrix, Vec, Out string
	N                int // square dimension
}

func (p MatVec) validate(d *Descriptor) error {
	for _, name := range []string{p.Matrix, p.Vec, p.Out} {
		if _, err := d.Region(name); err != nil {
			return err
		}
	}
	if p.N <= 1 {
		return fmt.Errorf("analytic: %s: MatVec n=%d must exceed 1", d.Kernel, p.N)
	}
	return nil
}

// Smooth is one sweep of the Algorithm 3 four-neighbor smoother over one
// grid level living inside Region at OffsetElems, of dimension Dim per
// axis. The solver counts it at row granularity (a row = the Dim
// contiguous k-elements of one (i, j) cell): rows the sweep enters are
// measured, repeated rows after the second stripe are translates.
type Smooth struct {
	Region      string
	Dim         int // grid dimension per axis
	OffsetElems int // element offset of the level within the region
}

func (p Smooth) validate(d *Descriptor) error { return validateGrid(d, p.Region, p.Dim, p.OffsetElems) }

// Restrict is the fine-to-coarse injection between two adjacent grid
// levels of the same region (each coarse cell averages its 2x2x2 fine
// children).
type Restrict struct {
	Region                 string
	FineDim, CoarseDim     int
	FineOffset, CoarseOffs int // element offsets of the two levels
}

func (p Restrict) validate(d *Descriptor) error {
	if p.CoarseDim*2 != p.FineDim {
		return fmt.Errorf("analytic: %s: Restrict dims %d -> %d not a 2x coarsening",
			d.Kernel, p.FineDim, p.CoarseDim)
	}
	if err := validateGrid(d, p.Region, p.FineDim, p.FineOffset); err != nil {
		return err
	}
	return validateGrid(d, p.Region, p.CoarseDim, p.CoarseOffs)
}

// Prolong is the coarse-to-fine interpolation between two adjacent grid
// levels of the same region (each coarse value is added onto its eight
// children, read-modify-write).
type Prolong struct {
	Region                 string
	FineDim, CoarseDim     int
	FineOffset, CoarseOffs int
}

func (p Prolong) validate(d *Descriptor) error {
	if p.CoarseDim*2 != p.FineDim {
		return fmt.Errorf("analytic: %s: Prolong dims %d -> %d not a 2x refinement",
			d.Kernel, p.FineDim, p.CoarseDim)
	}
	if err := validateGrid(d, p.Region, p.FineDim, p.FineOffset); err != nil {
		return err
	}
	return validateGrid(d, p.Region, p.CoarseDim, p.CoarseOffs)
}

func validateGrid(d *Descriptor, region string, dim, offset int) error {
	r, err := d.Region(region)
	if err != nil {
		return err
	}
	if dim < 2 || offset < 0 {
		return fmt.Errorf("analytic: %s: malformed grid level dim=%d offset=%d", d.Kernel, dim, offset)
	}
	need := int64(offset+dim*dim*dim) * int64(r.ElemSize)
	if need > r.Bytes {
		return fmt.Errorf("analytic: %s: grid level dim=%d offset=%d overruns region %s",
			d.Kernel, dim, offset, region)
	}
	return nil
}

// BitReverse is the FFT bit-reversal permutation over Region (N a power
// of two): for every pair i < j with j = rev(i), elements i and j are
// loaded and stored. Counted at line granularity, every line touch
// measured — the visit order is a bit-reversed shuffle, not a stream.
type BitReverse struct {
	Region string
	N      int
}

func (p BitReverse) validate(d *Descriptor) error {
	if _, err := d.Region(p.Region); err != nil {
		return err
	}
	if p.N < 4 || p.N&(p.N-1) != 0 {
		return fmt.Errorf("analytic: %s: BitReverse n=%d must be a power of two >= 4", d.Kernel, p.N)
	}
	return nil
}

// Butterflies is the log2(N) radix-2 butterfly passes of the FFT: each
// pass is one full traversal of Region touching every line once (the a/b
// legs of each butterfly partition the array), with the whole rest of the
// array intervening between a line's touches in consecutive passes.
type Butterflies struct {
	Region string
	N      int
}

func (p Butterflies) validate(d *Descriptor) error {
	if _, err := d.Region(p.Region); err != nil {
		return err
	}
	if p.N < 4 || p.N&(p.N-1) != 0 {
		return fmt.Errorf("analytic: %s: Butterflies n=%d must be a power of two >= 4", d.Kernel, p.N)
	}
	return nil
}

// Repeat runs Body Count times back to back — the outer iteration loop of
// CG, the V-cycle count of MG, the round count of FT. The solver unrolls
// it; bodies are short (a handful of phases), so even CG's 10 iterations
// stay a few hundred phase solves.
type Repeat struct {
	Count int
	Body  []Phase
}

func (p Repeat) validate(d *Descriptor) error {
	if p.Count <= 0 {
		return fmt.Errorf("analytic: %s: Repeat count %d must be positive", d.Kernel, p.Count)
	}
	return validatePhases(d, p.Body)
}
