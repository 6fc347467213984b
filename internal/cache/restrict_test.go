package cache

import (
	"reflect"
	"testing"
)

// FuzzSetSimulatorVsSimulator checks a SetSimulator against a Simulator
// of the whole geometry that is fed only the blocks of each reference
// that map to a kept set, one Access per block: the sets of an LRU cache
// are independent, so both must agree on every structure's counters.
// The kept sets are those of the size bytes at base, both fuzzed. The
// program is FuzzStridedVsAccess's: each op a strided group, whose
// elements also go to Touches, checked against the kept set list.
func FuzzSetSimulatorVsSimulator(f *testing.F) {
	f.Add([]byte{0x09, 40, 0, 0, 0x30, 8, 0x38}, uint8(0), uint16(0x1010), uint16(300))
	f.Add([]byte{0x19, 200, 0, 0x41, 0x31, 0x82, 0x5a, 0xc3, 0x10}, uint8(5), uint16(0x2000), uint16(9000))
	f.Fuzz(func(t *testing.T, prog []byte, geo uint8, base, size uint16) {
		if len(prog) > 256 {
			prog = prog[:256]
		}
		geometries := stridedGeometries()
		cfg := geometries[int(geo)%len(geometries)]
		set, err := NewSetSimulator(cfg, uint64(base), uint64(size)+1)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		line := uint64(cfg.LineSize)
		sets := uint64(cfg.Sets)
		kept := make(map[uint64]bool)
		for b := uint64(base) / line; b <= (uint64(base)+uint64(size))/line; b++ {
			kept[b%sets] = true
		}
		present := func(addr uint64, size uint32, write bool, owner StructID) {
			first, last := whole.span(addr, size)
			for b := first; b <= last && last >= first; b++ {
				if kept[b%sets] {
					whole.Access(b*line, 1, write, owner)
				}
				if b == last {
					break
				}
			}
		}
		for len(prog) > 2 {
			op := prog[0]
			steps := (int(prog[1]) | int(prog[2])<<8) % 301
			prog = prog[3:]
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
				touches := false
				for blk := refs[e].Addr / line; blk <= (refs[e].Addr+uint64(max(refs[e].Size, 1))-1)/line; blk++ {
					touches = touches || kept[blk%sets]
				}
				if got := set.Touches(refs[e].Addr, uint64(refs[e].Size)); got != touches {
					t.Fatalf("%v: Touches(%#x, %d) = %v, want %v", cfg, refs[e].Addr, refs[e].Size, got, touches)
				}
			}
			prog = prog[2*elems:]
			if op&1 != 0 {
				set.AccessStrided(refs, strides, steps)
			} else {
				for k := range steps {
					for e, r := range refs {
						set.Access(r.Addr+uint64(int64(k)*strides[e]), r.Size, r.Write, r.Owner)
					}
				}
			}
			for k := range steps {
				for e, r := range refs {
					present(r.Addr+uint64(int64(k)*strides[e]), r.Size, r.Write, r.Owner)
				}
			}
			if got, want := set.sim.PerStructStats(), whole.PerStructStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v, kept sets of [%#x, +%d]: SetSimulator %v, Simulator %v", cfg, base, size, got, want)
			}
			if set.StateLen() > set.StateCap() {
				t.Fatalf("%v: state of %d words exceeds its cap %d", cfg, set.StateLen(), set.StateCap())
			}
		}
	})
}

// TestSetSimulatorTouches checks Touches against the kept set list for
// every short range near a kept range that wraps past the last set, one
// that ends on it and one that is every set.
func TestSetSimulatorTouches(t *testing.T) {
	cfg := Config{Associativity: 2, Sets: 16, LineSize: 8}
	for _, r := range []struct{ base, size uint64 }{{13 * 8, 5 * 8}, {4 * 8, 12 * 8}, {0, 16 * 8}, {3, 1}} {
		s, err := NewSetSimulator(cfg, r.base, r.size)
		if err != nil {
			t.Fatal(err)
		}
		kept := make(map[uint64]bool)
		for b := r.base / 8; b <= (r.base+r.size-1)/8; b++ {
			kept[b%16] = true
		}
		for addr := uint64(0); addr < 40*8; addr += 4 {
			for size := uint64(0); size < 20*8; size += 4 {
				want := false
				for b := addr / 8; b <= (addr+max(size, 1)-1)/8; b++ {
					want = want || kept[b%16]
				}
				if got := s.Touches(addr, size); got != want {
					t.Fatalf("kept sets of [%d, +%d): Touches(%d, %d) = %v, want %v", r.base, r.size, addr, size, got, want)
				}
			}
		}
	}
}
