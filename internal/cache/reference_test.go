package cache

import (
	"math/rand"
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
