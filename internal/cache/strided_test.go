package cache

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/resilience-models/dvf/internal/trace"
)

// TestStepsInLine pins the run bounds: forward and backward strides, an
// element that spans a line boundary, and one that never moves.
func TestStepsInLine(t *testing.T) {
	for _, c := range []struct {
		addr, size, stride, line, want int64
	}{
		{0, 8, 8, 64, 8},
		{56, 8, 8, 64, 1},
		{8, 8, 16, 64, 4},
		{16, 16, 16, 32, 1},
		{0, 16, 16, 8, 1},   // spans two lines
		{60, 8, 8, 64, 1},   // spans two lines
		{56, 8, -8, 64, 8},  // walks down to the line start
		{8, 8, -16, 64, 1},  // the next step leaves the line
		{24, 8, -16, 64, 2}, // 24, then 8
		{40, 8, 0, 64, math.MaxInt64},
		{0, 8, 8, 8, 1},
		{-8, 8, 8, 64, 1},            // the top line of the address space
		{-64, 8, 8, 64, 8},           // its first element
		{0, 8, math.MinInt64, 64, 1}, // moves by half the address space
	} {
		if got := StepsInLine(c.addr, c.size, c.stride, c.line); got != c.want {
			t.Errorf("StepsInLine(%d, %d, %d, %d) = %d, want %d", c.addr, c.size, c.stride, c.line, got, c.want)
		}
	}
}

// stridedGeometries are the six Table IV caches plus a direct-mapped,
// a one-set and a 4-byte-line geometry.
func stridedGeometries() []Config {
	return append(append(VerificationConfigs(), ProfilingConfigs()...),
		Config{Name: "direct-mapped", Associativity: 1, Sets: 64, LineSize: 32},
		Config{Name: "one-set", Associativity: 8, Sets: 1, LineSize: 32},
		Config{Name: "4B-lines", Associativity: 2, Sets: 16, LineSize: 4},
	)
}

// Element sizes and strides a fuzzed group element picks from: sizes of
// 0 and 1 (one block), line-spanning sizes, and zero, negative, odd and
// larger-than-a-line strides.
var (
	fuzzSizes   = [8]uint32{0, 1, 4, 8, 8, 16, 24, 64}
	fuzzStrides = [16]int64{0, 4, 8, 8, 16, -8, -4, 32, 64, -64, 128, 12, -24, 1, 2, 8}
)

// FuzzStridedVsAccess checks AccessStrided, called on the simulator and
// through its RefConsumer, against an Access loop over the same steps.
// The program is read op by op: an op byte with its low two bits clear
// takes a SaveState on both simulators; any other op byte is a group of
// 1 + (op>>3)%24 elements taken through RefConsumer when op&4 is set.
// The next two bytes give the steps, 0-300; each element then reads two
// bytes: a, which places it 4*(a&63) bytes into the 4 KiB region of
// structure 1 + a>>6, and b, which picks its size (b&7), whether it
// writes (b&8) and its stride (b>>4). Equal byte pairs give duplicate
// elements. The geometry is one of stridedGeometries. After every op
// both simulators must agree on every counter and on SameState, and
// after a Flush on the totals.
func FuzzStridedVsAccess(f *testing.F) {
	f.Add([]byte{0x09, 40, 0, 0, 0x30, 8, 0x38}, uint8(0))
	f.Fuzz(func(t *testing.T, prog []byte, geo uint8) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		geometries := stridedGeometries()
		cfg := geometries[int(geo)%len(geometries)]
		strided, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			if op&3 == 0 {
				strided.SaveState()
				loop.SaveState()
			} else {
				if len(prog) < 2 {
					break
				}
				steps := (int(prog[0]) | int(prog[1])<<8) % 301
				prog = prog[2:]
				elems := min(1+int(op>>3)%24, len(prog)/2)
				refs := make([]Ref, elems)
				strides := make([]int64, elems)
				for e := range refs {
					a, b := prog[2*e], prog[2*e+1]
					refs[e] = Ref{
						Addr:  uint64(1+a>>6)<<12 + 4*uint64(a&63),
						Size:  fuzzSizes[b&7],
						Write: b&8 != 0,
						Owner: StructID(1 + a>>6),
					}
					strides[e] = fuzzStrides[b>>4]
				}
				prog = prog[2*elems:]
				if op&4 != 0 {
					trefs := make([]trace.Ref, elems)
					owners := make([]int32, elems)
					for e, r := range refs {
						trefs[e] = trace.Ref{Addr: r.Addr, Size: r.Size, Write: r.Write}
						owners[e] = int32(r.Owner)
					}
					strided.Consumer().AccessStrided(trefs, owners, strides, steps)
				} else {
					before := slices.Clone(refs)
					strided.AccessStrided(refs, strides, steps)
					if !slices.Equal(refs, before) {
						t.Fatalf("AccessStrided modified its refs: %v, was %v", refs, before)
					}
				}
				for k := range steps {
					for e, r := range refs {
						loop.Access(r.Addr+uint64(int64(k)*strides[e]), r.Size, r.Write, r.Owner)
					}
				}
			}
			if got, want := strided.PerStructStats(), loop.PerStructStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: AccessStrided %v, Access loop %v", cfg, got, want)
			}
			if strided.SameState() != loop.SameState() {
				t.Fatalf("%v: AccessStrided SameState %v, Access loop %v", cfg, strided.SameState(), loop.SameState())
			}
		}
		strided.Flush()
		loop.Flush()
		if got, want := strided.TotalStats(), loop.TotalStats(); got != want {
			t.Fatalf("%v after Flush: AccessStrided %+v, Access loop %+v", cfg, got, want)
		}
	})
}

// TestAccessStridedAllocFree: a warm strided walk, line runs and the
// element-by-element fallback for a group larger than the buffer alike,
// allocates nothing.
func TestAccessStridedAllocFree(t *testing.T) {
	sim, err := NewSimulator(Small)
	if err != nil {
		t.Fatal(err)
	}
	small := []Ref{{Addr: 0x1000, Size: 8, Owner: 1}, {Addr: 0x2000, Size: 8, Owner: 2, Write: true}}
	smallStrides := []int64{8, 8}
	big := make([]Ref, maxGroup+1)
	bigStrides := make([]int64, len(big))
	trefs := make([]trace.Ref, len(big))
	owners := make([]int32, len(big))
	for e := range big {
		big[e] = Ref{Addr: 0x3000 + 64*uint64(e), Size: 8, Owner: 3}
		bigStrides[e] = 8
		trefs[e] = trace.Ref{Addr: big[e].Addr, Size: 8}
		owners[e] = 3
	}
	c := sim.Consumer()
	allocs := testing.AllocsPerRun(50, func() {
		sim.AccessStrided(small, smallStrides, 100)
		sim.AccessStrided(big, bigStrides, 10)
		c.AccessStrided(trefs[:2], owners[:2], smallStrides, 100)
		c.AccessStrided(trefs, owners, bigStrides, 10)
	})
	if allocs != 0 {
		t.Errorf("AccessStrided allocated %.1f times per call set, want 0", allocs)
	}
}

// BenchmarkAccessStrided walks CG's matvec at n=500 on the Small cache:
// per row, A's row and p as one strided group, 4 steps per line run.
func BenchmarkAccessStrided(b *testing.B) {
	const n = 500
	sim, err := NewSimulator(Small)
	if err != nil {
		b.Fatal(err)
	}
	row := []Ref{{Size: 8, Owner: 1}, {Addr: 1 << 24, Size: 8, Owner: 2}}
	strides := []int64{8, 8}
	b.ReportAllocs()
	for range b.N {
		for i := range n {
			row[0].Addr = 1<<12 + uint64(i*n)*8
			sim.AccessStrided(row, strides, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*2*n*n), "ns/ref")
}
