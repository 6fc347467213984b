package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refCache is a deliberately naive, obviously-correct set-associative LRU
// cache used as a differential oracle for the production simulator. It
// keeps per-set slices ordered oldest-first and scans linearly.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	stats map[StructID]*Stats
}

type refLine struct {
	block uint64
	owner StructID
	dirty bool
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		cfg:   cfg,
		sets:  make([][]refLine, cfg.Sets),
		stats: map[StructID]*Stats{},
	}
}

func (r *refCache) stat(id StructID) *Stats {
	s, ok := r.stats[id]
	if !ok {
		s = &Stats{}
		r.stats[id] = s
	}
	return s
}

func (r *refCache) access(addr uint64, size uint32, write bool, owner StructID) {
	if size == 0 {
		size = 1
	}
	first := addr / uint64(r.cfg.LineSize)
	last := (addr + uint64(size) - 1) / uint64(r.cfg.LineSize)
	for blk := first; blk <= last; blk++ {
		r.accessBlock(blk, write, owner)
	}
}

func (r *refCache) accessBlock(blk uint64, write bool, owner StructID) {
	st := r.stat(owner)
	st.Accesses++
	setIdx := int(blk % uint64(r.cfg.Sets))
	set := r.sets[setIdx]
	for i := range set {
		if set[i].block == blk {
			// Hit: move to the back (most recently used).
			line := set[i]
			if write {
				line.dirty = true
			}
			set = append(append(set[:i:i], set[i+1:]...), line)
			r.sets[setIdx] = set
			st.Hits++
			return
		}
	}
	st.Misses++
	if len(set) == r.cfg.Associativity {
		victim := set[0]
		vs := r.stat(victim.owner)
		vs.Evictions++
		if victim.dirty {
			vs.Writebacks++
		}
		set = set[1:]
	}
	r.sets[setIdx] = append(set, refLine{block: blk, owner: owner, dirty: write})
}

func (r *refCache) flush() {
	for i := range r.sets {
		for _, line := range r.sets[i] {
			if line.dirty {
				r.stat(line.owner).Writebacks++
			}
		}
		r.sets[i] = nil
	}
}

func (r *refCache) reset() {
	clear(r.sets)
	clear(r.stats)
}

func (r *refCache) residentBlocks(id StructID) int {
	n := 0
	for _, set := range r.sets {
		for _, line := range set {
			if line.owner == id {
				n++
			}
		}
	}
	return n
}

// TestSimulatorMatchesReferenceLRU drives identical random streams through
// the production simulator and the naive oracle, demanding identical
// per-structure counters.
func TestSimulatorMatchesReferenceLRU(t *testing.T) {
	configs := []Config{
		{Name: "t1", Associativity: 1, Sets: 4, LineSize: 16},
		{Name: "t2", Associativity: 2, Sets: 8, LineSize: 32},
		{Name: "t3", Associativity: 4, Sets: 2, LineSize: 8},
		Small,
	}
	f := func(seed int64, pick uint8) bool {
		cfg := configs[int(pick)%len(configs)]
		sim, err := NewSimulator(cfg)
		if err != nil {
			return false
		}
		oracle := newRefCache(cfg)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(1 << 14))
			size := uint32(rng.Intn(24) + 1)
			write := rng.Intn(3) == 0
			owner := StructID(rng.Intn(3) + 1)
			sim.Access(addr, size, write, owner)
			oracle.access(addr, size, write, owner)
		}
		sim.Flush()
		oracle.flush()
		for id := StructID(1); id <= 3; id++ {
			if sim.StructStats(id) != *oracle.stat(id) {
				t.Logf("cfg %s struct %d: sim %+v oracle %+v",
					cfg.Name, id, sim.StructStats(id), *oracle.stat(id))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSimulatorMatchesReferenceOnAdversarialStreams covers access shapes
// random fuzzing rarely generates: exact-capacity loops, ping-pong pairs,
// and strided writes with flushes in between.
func TestSimulatorMatchesReferenceOnAdversarialStreams(t *testing.T) {
	cfg := Config{Name: "adv", Associativity: 2, Sets: 4, LineSize: 16}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newRefCache(cfg)
	do := func(addr uint64, size uint32, write bool, owner StructID) {
		sim.Access(addr, size, write, owner)
		oracle.access(addr, size, write, owner)
	}
	// Exact-capacity round robin (capacity 128 B): loops forever hit after
	// the cold pass.
	for pass := 0; pass < 3; pass++ {
		for off := uint64(0); off < 128; off += 16 {
			do(off, 16, pass == 0, 1)
		}
	}
	// One block over capacity: LRU thrash.
	for pass := 0; pass < 3; pass++ {
		for off := uint64(0); off < 144; off += 16 {
			do(off, 16, false, 2)
		}
	}
	// Ping-pong between two aliasing blocks plus a straddling access.
	for i := 0; i < 20; i++ {
		do(0, 1, true, 3)
		do(64, 1, false, 3)
		do(15, 4, false, 3) // straddles lines 0 and 1
	}
	sim.Flush()
	oracle.flush()
	for id := StructID(1); id <= 3; id++ {
		if sim.StructStats(id) != *oracle.stat(id) {
			t.Errorf("struct %d: sim %+v oracle %+v", id, sim.StructStats(id), *oracle.stat(id))
		}
	}
}

// FuzzSimulatorVsReference drives the simulator and the naive refCache
// oracle with one fuzz-generated stream and demands identical
// per-structure counters, totals and per-owner resident lines. The
// geometry spans associativity 1..16, 1..128 sets and 8..64 B lines.
// The stream mixes sequential runs (which hit the MRU way), multi-line
// spans, zero-size references and writes over the hostileOwners, with a
// Flush and a Reset at fuzz-chosen points. The seed corpus under
// testdata/fuzz pins a direct-mapped, a single-set and a 16-way geometry.
func FuzzSimulatorVsReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(1), uint16(3000), uint16(900), uint16(2100))
	f.Fuzz(func(t *testing.T, seed int64, assocSel, setSel, lineSel uint8, n, flushAt, resetAt uint16) {
		cfg := Config{
			Name:          "fuzz",
			Associativity: int(assocSel%16) + 1,
			Sets:          1 << (setSel % 8),
			LineSize:      8 << (lineSel % 4),
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("geometry %v rejected: %v", cfg, err)
		}
		oracle := newRefCache(cfg)
		check := func(when string) {
			t.Helper()
			want := map[StructID]Stats{}
			var wantTotal Stats
			for id, st := range oracle.stats {
				want[id] = *st
				wantTotal = wantTotal.add(*st)
			}
			if got := sim.PerStructStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %v, %s: PerStructStats\n got %v\nwant %v", cfg, when, got, want)
			}
			if got := sim.TotalStats(); got != wantTotal {
				t.Fatalf("cfg %v, %s: TotalStats %+v, want %+v", cfg, when, got, wantTotal)
			}
			for _, id := range hostileOwners {
				if got, want := sim.ResidentBlocks(id), oracle.residentBlocks(id); got != want {
					t.Fatalf("cfg %v, %s: ResidentBlocks(%d) = %d, want %d", cfg, when, id, got, want)
				}
			}
		}
		do := func(addr uint64, size uint32, write bool, owner StructID) {
			sim.Access(addr, size, write, owner)
			oracle.access(addr, size, write, owner)
		}

		rng := rand.New(rand.NewSource(seed))
		line := uint64(cfg.LineSize)
		for i := 0; i < int(n%4096); i++ {
			owner := hostileOwners[rng.Intn(len(hostileOwners))]
			write := rng.Intn(4) == 0
			addr := uint64(rng.Intn(1 << 14))
			switch rng.Intn(4) {
			case 0: // a sequential run of elements: MRU-way hits
				elem, run := uint64(1)<<rng.Intn(4), uint64(rng.Intn(32)+1)
				for k := uint64(0); k < run; k++ {
					do(addr+k*elem, uint32(elem), write, owner)
				}
			case 1: // a reference spanning up to four lines
				do(addr, uint32(rng.Int63n(int64(4*line))+1), write, owner)
			case 2:
				do(addr, 0, write, owner)
			default:
				do(addr, uint32(rng.Intn(8)+1), write, owner)
			}
			switch i {
			case int(flushAt):
				check("before Flush")
				sim.Flush()
				oracle.flush()
			case int(resetAt):
				sim.Reset()
				oracle.reset()
			}
		}
		check("end of stream")
		sim.Flush()
		oracle.flush()
		check("after the final Flush")
	})
}
