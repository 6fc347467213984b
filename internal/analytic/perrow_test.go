package analytic_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
)

// sameMisses fails unless Solve's per-structure misses are bitwise the
// per-row reference solver's.
func sameMisses(t *testing.T, d *analytic.Descriptor, cfg cache.Config) {
	t.Helper()
	prof, err := analytic.Solve(d, cfg)
	if err != nil {
		t.Fatalf("solve %s on %+v: %v", d.Kernel, cfg, err)
	}
	want := analytic.RowSolve(d, cfg)
	for i, s := range prof.Structures {
		if math.Float64bits(s.Misses) != math.Float64bits(want[i]) {
			t.Errorf("%s/%s on %+v: Solve %v (%#x) != per-row %v (%#x)",
				d.Kernel, s.Name, cfg, s.Misses, math.Float64bits(s.Misses), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSolveMatchesPerRow pins the closed-form grid and permutation
// phases to the per-row walk on every bundled affine kernel, at both
// Table V and Table VI sizes and with repeated cycles, sweeps and rounds,
// on every bundled cache geometry.
func TestSolveMatchesPerRow(t *testing.T) {
	var ks []kernels.Kernel
	for _, suite := range [][]kernels.Kernel{kernels.VerificationSuite(), kernels.ProfilingSuite()} {
		for _, k := range suite {
			if _, ok := kernels.Affine(k); ok {
				ks = append(ks, k)
			}
		}
	}
	ks = append(ks, &kernels.MG{N: 16, Cycles: 2, Smooth: 2}, &kernels.FT{N: 512, Rounds: 3})
	for _, k := range ks {
		d, _ := kernels.Affine(k)
		for _, cfg := range allConfigs() {
			k, d, cfg := k, d, cfg
			t.Run(fmt.Sprintf("%s/%s", k.Name(), cfg.Name), func(t *testing.T) {
				t.Parallel()
				sameMisses(t, d, cfg)
			})
		}
	}
}

// FuzzSolveVsPerRow holds Solve to the per-row reference solver bit for
// bit over fuzzed MG and FT descriptors, fuzzed phase programs that mix
// every grid and permutation phase over one region (overlapping levels,
// arbitrary predecessors), and fuzzed cache geometries.
func FuzzSolveVsPerRow(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), uint8(0), uint8(3), uint8(6), uint8(2), []byte(nil))
	f.Add(uint8(0), uint8(0), uint8(1), uint8(2), uint8(1), uint8(4), uint8(0), []byte(nil))
	f.Add(uint8(1), uint8(7), uint8(0), uint8(0), uint8(3), uint8(6), uint8(2), []byte(nil))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(0), uint8(0), uint8(2), uint8(0), []byte(nil))
	f.Add(uint8(2), uint8(1), uint8(0), uint8(0), uint8(1), uint8(3), uint8(1), []byte{0, 40, 1, 7, 0, 40, 2, 7, 3, 2, 4, 2, 0, 3})
	f.Fuzz(func(t *testing.T, kind, size, reps, sweeps, assocSel, setSel, lineSel uint8, prog []byte) {
		var d *analytic.Descriptor
		switch kind % 3 {
		case 0:
			d, _ = kernels.Affine(&kernels.MG{N: 8 << (size % 3), Cycles: 1 + int(reps%2), Smooth: int(sweeps % 3)})
		case 1:
			d, _ = kernels.Affine(&kernels.FT{N: 4 << (size % 8), Rounds: 1 + int(reps%2)})
		case 2:
			d = fuzzProgram(size, prog)
			if d.Validate() != nil {
				t.Skip()
			}
		}
		cfg := cache.Config{
			Name:          "fuzz",
			Associativity: int(assocSel%8) + 1,
			Sets:          1 << (setSel % 9),
			LineSize:      1 << (3 + lineSel%4),
		}
		sameMisses(t, d, cfg)
	})
}

// fuzzProgram decodes up to twelve byte pairs into phases over one region
// of 2048 elements: Smooth, Restrict, Prolong, BitReverse, Butterflies or
// a whole-region Stream, with dimensions and level offsets taken from the
// second byte, so levels may overlap and any phase may follow any other.
func fuzzProgram(size uint8, prog []byte) *analytic.Descriptor {
	const elems = 2048
	es := 8 << (size % 2)
	d := &analytic.Descriptor{
		Kernel:  "fuzz",
		Regions: []analytic.Region{{Name: "R", Bytes: elems * int64(es), ElemSize: es}},
	}
	for i := 0; i+1 < len(prog) && len(d.Phases) < 12; i += 2 {
		op, arg := prog[i]%6, int(prog[i+1])
		off := (arg >> 3) * 61 % 1024
		switch op {
		case 0:
			d.Phases = append(d.Phases, analytic.Smooth{Region: "R", Dim: 2 + arg%7, OffsetElems: off})
		case 1, 2:
			nf := 4 << (arg % 2)
			offC := (arg >> 1) * 29 % 1024
			if op == 1 {
				d.Phases = append(d.Phases, analytic.Restrict{Region: "R", FineDim: nf, CoarseDim: nf / 2, FineOffset: off, CoarseOffs: offC})
			} else {
				d.Phases = append(d.Phases, analytic.Prolong{Region: "R", FineDim: nf, CoarseDim: nf / 2, FineOffset: off, CoarseOffs: offC})
			}
		case 3:
			d.Phases = append(d.Phases, analytic.BitReverse{Region: "R", N: 4 << (arg % 6)})
		case 4:
			d.Phases = append(d.Phases, analytic.Butterflies{Region: "R", N: 4 << (arg % 6)})
		case 5:
			d.Phases = append(d.Phases, analytic.Stream{Streams: []analytic.Traversal{{Region: "R", StrideElems: 1, Count: elems}}})
		}
	}
	if len(d.Phases) == 0 {
		d.Phases = append(d.Phases, analytic.Smooth{Region: "R", Dim: 8})
	}
	return d
}

// TestSolveRejectsOversizedPhase: a descriptor whose grid levels would
// overflow the timeline's int32 indices fails with an error before
// anything is sized by it.
func TestSolveRejectsOversizedPhase(t *testing.T) {
	const dim = 1 << 15 // dim*dim fine rows > MaxInt32/4
	d := &analytic.Descriptor{
		Kernel:  "huge",
		Regions: []analytic.Region{{Name: "R", Bytes: 8 * int64(dim) * dim * dim, ElemSize: 8}},
		Phases:  []analytic.Phase{analytic.Restrict{Region: "R", FineDim: dim, CoarseDim: dim / 2, CoarseOffs: 0}},
	}
	if _, err := analytic.Solve(d, cache.Small); err == nil {
		t.Fatal("Solve accepted a phase too large for the timeline")
	}
}
