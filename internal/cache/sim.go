package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/trace"
	"github.com/resilience-models/dvf/internal/tracez"
)

// StructID identifies a registered data structure for per-structure
// accounting. The zero value Unattributed is used for accesses that fall
// outside every registered address range.
type StructID int32

// Unattributed tags accesses to addresses not claimed by any data structure.
const Unattributed StructID = 0

// Stats accumulates the per-data-structure counters the verification
// experiment compares against the analytical models.
type Stats struct {
	Accesses   int64 // total references presented to the cache
	Hits       int64 // references satisfied by the cache
	Misses     int64 // references that loaded a line from main memory
	Writebacks int64 // dirty lines evicted to main memory
	Evictions  int64 // lines evicted for capacity/conflict (dirty or clean)
}

// MemoryAccesses is the paper's N_ha for the structure under the common
// convention that every miss costs one main-memory read and every writeback
// one main-memory write.
func (s Stats) MemoryAccesses() int64 { return s.Misses + s.Writebacks }

// MissRatio returns Misses/Accesses, or 0 when no accesses were recorded.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func (s Stats) add(o Stats) Stats {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
	s.Evictions += o.Evictions
	return s
}

type line struct {
	tag   uint64
	owner StructID
	valid bool
	dirty bool
}

// Simulator is a write-back, write-allocate, set-associative LRU cache.
// A Simulator's methods must not be called concurrently: drive one
// simulator per goroutine.
type Simulator struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	tagShift  uint
	sets      [][]line // sets[i] ordered most- to least-recently used

	// Per-structure counters: IDs in [0, denseStructIDs) index dense
	// directly; any other ID (negative, or large, as a hand-written or
	// hostile trace file may carry) lives in sparse. An entry is nil until
	// its ID is first seen, so memory follows the IDs seen, never an ID's
	// value.
	dense      []*Stats
	sparse     map[StructID]*Stats
	total      Stats
	structName map[StructID]string

	// Tracing state, attached by Trace; nil until then and nil-safe
	// everywhere, so the untraced hot path pays one nil check.
	tk       *tracez.Track
	progress *tracez.Counter
}

// denseStructIDs bounds the slice-indexed per-structure counters. A
// trace.Registry numbers structures 1, 2, ... in allocation order, so
// every structure of a real workload lands in the dense range.
const denseStructIDs = 256

// progressMask throttles the traced progress counter: one sample every
// 2^20 accesses keeps a multi-hundred-million-reference replay's trace
// at a few hundred counter events.
const progressMask = 1<<20 - 1

// NewSimulator builds a simulator for the given geometry.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Set backing storage is allocated lazily, on a set's first miss, so
	// a short trace on a large geometry pays only for the sets it touches.
	s := &Simulator{
		cfg:        cfg,
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint64(cfg.Sets - 1),
		tagShift:   uint(bits.TrailingZeros(uint(cfg.Sets))),
		sets:       make([][]line, cfg.Sets),
		dense:      make([]*Stats, denseStructIDs),
		sparse:     make(map[StructID]*Stats),
		structName: make(map[StructID]string),
	}
	return s, nil
}

// Config returns the geometry the simulator was built with.
func (s *Simulator) Config() Config { return s.cfg }

// Label associates a human-readable name with a structure ID for reporting.
func (s *Simulator) Label(id StructID, name string) { s.structName[id] = name }

// Access presents a single memory reference of the given byte size starting
// at addr, attributed to owner. References spanning multiple cache lines are
// split, as real hardware would.
//
//dvf:hotpath
func (s *Simulator) Access(addr uint64, size uint32, write bool, owner StructID) {
	if size == 0 {
		size = 1
	}
	first := addr >> s.lineShift
	last := (addr + uint64(size) - 1) >> s.lineShift
	for blk := first; blk <= last; blk++ {
		s.accessBlock(blk, write, owner)
	}
}

// AccessBatch replays a whole batch, splitting multi-line references
// exactly like Access: one bounds-checked loop over the two columns
// instead of a call per reference. The batch is not retained. It
// implements trace.BatchConsumer.
//
//dvf:hotpath
func (s *Simulator) AccessBatch(b *trace.RefBatch) {
	for i := range b.Addrs {
		size, write, owner := trace.UnpackMeta(b.Metas[i])
		if size == 0 {
			size = 1
		}
		addr := b.Addrs[i]
		first := addr >> s.lineShift
		last := (addr + uint64(size) - 1) >> s.lineShift
		for blk := first; blk <= last; blk++ {
			s.accessBlock(blk, write, StructID(owner))
		}
	}
}

func (s *Simulator) accessBlock(blk uint64, write bool, owner StructID) {
	st := s.stats(owner)
	st.Accesses++
	s.total.Accesses++
	if s.progress != nil && s.total.Accesses&progressMask == 0 {
		s.progress.Sample(s.total.Accesses)
	}

	setIdx := blk & s.setMask
	tag := blk >> s.tagShift
	set := s.sets[setIdx]

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Hit: move to MRU position.
			hit := set[i]
			if write {
				hit.dirty = true
			}
			copy(set[1:i+1], set[:i])
			set[0] = hit
			st.Hits++
			s.total.Hits++
			return
		}
	}

	// Miss: load from main memory.
	st.Misses++
	s.total.Misses++
	newLine := line{tag: tag, owner: owner, valid: true, dirty: write}
	if len(set) < s.cfg.Associativity {
		if cap(set) == 0 {
			// First touch of this set: reserve the full associativity once.
			//dvf:allow hotalloc one-time lazy backing per cache set, amortized to zero and held to it by the AllocsPerRun guard in sim_test.go
			set = make([]line, 0, s.cfg.Associativity)
		}
		//dvf:allow hotalloc append stays within the associativity capacity reserved above, so it never grows the backing array
		set = append(set, line{})
		copy(set[1:], set[:len(set)-1])
		set[0] = newLine
		s.sets[setIdx] = set
		return
	}
	// Evict LRU (last element).
	victim := set[len(set)-1]
	vs := s.stats(victim.owner)
	vs.Evictions++
	s.total.Evictions++
	if victim.dirty {
		vs.Writebacks++
		s.total.Writebacks++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = newLine
}

// Flush writes back all dirty lines and invalidates the cache, counting the
// writebacks against their owners. Flushing at the end of a region of
// interest makes the writeback count independent of what runs afterwards.
func (s *Simulator) Flush() {
	sp := s.tk.Begin("cache.flush")
	defer sp.End()
	for i := range s.sets {
		for _, ln := range s.sets[i] {
			if ln.valid && ln.dirty {
				st := s.stats(ln.owner)
				st.Writebacks++
				s.total.Writebacks++
			}
		}
		s.sets[i] = s.sets[i][:0]
	}
}

// Reset clears cache contents and all counters.
func (s *Simulator) Reset() {
	sp := s.tk.Begin("cache.reset")
	defer sp.End()
	for i := range s.sets {
		s.sets[i] = s.sets[i][:0]
	}
	clear(s.dense)
	s.sparse = make(map[StructID]*Stats)
	s.total = Stats{}
}

// stats returns id's counters, creating them on first sight. The dense
// probe is small enough to inline into accessBlock; only a first sight or
// an out-of-range ID takes the call to newStats.
func (s *Simulator) stats(id StructID) *Stats {
	if uint32(id) < denseStructIDs {
		if st := s.dense[id]; st != nil {
			return st
		}
	}
	return s.newStats(id)
}

// newStats is the slow path of stats: a dense ID's first sight, or any
// ID outside the dense range.
func (s *Simulator) newStats(id StructID) *Stats {
	if st, ok := s.sparse[id]; ok {
		return st
	}
	//dvf:allow hotalloc one allocation per structure ID on first sight, not per access; steady-state replay never takes this branch
	st := &Stats{}
	if uint32(id) < denseStructIDs {
		s.dense[id] = st
	} else {
		s.sparse[id] = st
	}
	return st
}

// StructStats returns the counters attributed to id (zero Stats if unseen).
func (s *Simulator) StructStats(id StructID) Stats {
	st := s.sparse[id]
	if uint32(id) < denseStructIDs {
		st = s.dense[id]
	}
	if st == nil {
		return Stats{}
	}
	return *st
}

// TotalStats returns the counters aggregated over all structures.
func (s *Simulator) TotalStats() Stats { return s.total }

// PerStructStats returns a copy of every structure's counters.
func (s *Simulator) PerStructStats() map[StructID]Stats {
	out := make(map[StructID]Stats, len(s.sparse))
	for id, st := range s.dense {
		if st != nil {
			out[StructID(id)] = *st
		}
	}
	for id, st := range s.sparse {
		out[id] = *st
	}
	return out
}

// Drain is a no-op: every Access has been simulated when it returns. It
// is part of Engine, kept so callers of the old API still build.
func (s *Simulator) Drain() {}

// Close is a no-op: the simulator holds no workers. It is part of
// Engine, kept so callers of the old API still build.
func (s *Simulator) Close() {}

// Trace attaches a timeline to the simulator: a "cache.sim" track with
// spans around Flush and Reset, and a "cache.sim.accesses" progress
// counter sampled every 2^20 references. A nil recorder leaves the
// simulator untraced; the hot path then pays one nil check per block
// access. Call it before the first Access, from the feeding goroutine.
func (s *Simulator) Trace(tz tracez.Recorder) {
	s.traceNamed(tz, "cache.sim")
}

// traceNamed is Trace under a caller-chosen track name, so a Hierarchy
// can keep its levels' tracks distinguishable.
func (s *Simulator) traceNamed(tz tracez.Recorder, name string) {
	if tz == nil {
		return
	}
	s.tk = tz.Track(name)
	s.progress = tz.Counter(name + ".accesses")
}

// PublishStats exports the simulator's aggregate counters as gauges under
// prefix ("<prefix>.accesses", ".hits", ".misses", ".evictions",
// ".writebacks"). The counters are maintained by the simulation itself, so
// publishing is a handful of gauge stores at reporting time — the hot path
// is never touched.
func (s *Simulator) PublishStats(sink metrics.Sink, prefix string) {
	publishStats(sink, prefix, s.total)
}

func publishStats(sink metrics.Sink, prefix string, st Stats) {
	if sink == nil {
		return
	}
	sink.Gauge(prefix + ".accesses").Set(st.Accesses)
	sink.Gauge(prefix + ".hits").Set(st.Hits)
	sink.Gauge(prefix + ".misses").Set(st.Misses)
	sink.Gauge(prefix + ".evictions").Set(st.Evictions)
	sink.Gauge(prefix + ".writebacks").Set(st.Writebacks)
}

// ResidentBlocks returns how many valid lines currently belong to id,
// useful for occupancy assertions in tests.
func (s *Simulator) ResidentBlocks(id StructID) int {
	n := 0
	for i := range s.sets {
		for _, ln := range s.sets[i] {
			if ln.valid && ln.owner == id {
				n++
			}
		}
	}
	return n
}

// Report renders a deterministic per-structure summary table.
func (s *Simulator) Report() string {
	return renderReport(s.cfg, s.PerStructStats(), s.total, s.structName)
}

// renderReport formats a per-structure summary table; the reference
// oracle in the tests renders through it too.
func renderReport(cfg Config, perStruct map[StructID]Stats, total Stats, names map[StructID]string) string {
	ids := make([]StructID, 0, len(perStruct))
	for id := range perStruct {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := fmt.Sprintf("cache %s\n%-12s %10s %10s %10s %10s\n",
		cfg, "struct", "accesses", "misses", "writebacks", "missratio")
	for _, id := range ids {
		st := perStruct[id]
		name := names[id]
		if name == "" {
			name = fmt.Sprintf("#%d", id)
		}
		out += fmt.Sprintf("%-12s %10d %10d %10d %10.4f\n",
			name, st.Accesses, st.Misses, st.Writebacks, st.MissRatio())
	}
	out += fmt.Sprintf("%-12s %10d %10d %10d %10.4f\n",
		"TOTAL", total.Accesses, total.Misses, total.Writebacks, total.MissRatio())
	return out
}

// AggregateStats sums a slice of Stats, for combining per-structure results.
func AggregateStats(all ...Stats) Stats {
	var agg Stats
	for _, st := range all {
		agg = agg.add(st)
	}
	return agg
}
