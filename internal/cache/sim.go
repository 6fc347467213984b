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

// counters is one structure's running tallies. Hits are not kept: a
// reference that does not miss hits, so Stats derives Hits as
// Accesses - Misses when the counters are read.
type counters struct {
	accesses, misses, writebacks, evictions int64
}

func (c *counters) add(o *counters) {
	c.accesses += o.accesses
	c.misses += o.misses
	c.writebacks += o.writebacks
	c.evictions += o.evictions
}

func (c *counters) sub(o *counters) {
	c.accesses -= o.accesses
	c.misses -= o.misses
	c.writebacks -= o.writebacks
	c.evictions -= o.evictions
}

func (c *counters) stats() Stats {
	return Stats{
		Accesses:   c.accesses,
		Hits:       c.accesses - c.misses,
		Misses:     c.misses,
		Writebacks: c.writebacks,
		Evictions:  c.evictions,
	}
}

// line is one resident cache line. Every line below its set's fill count
// is valid, so a line carries no valid bit.
type line struct {
	tag   uint64
	owner StructID
	dirty bool
}

// emptyTag marks the MRU way of an empty set, so the fast path's single
// tag compare cannot match a set that holds nothing. Only a one-set cache
// with one-byte lines can produce the tag itself; such a block skips the
// fast path and is looked up against the fill count.
const emptyTag = ^uint64(0)

// Simulator is a write-back, write-allocate, set-associative LRU cache.
// A Simulator's methods must not be called concurrently: drive one
// simulator per goroutine.
type Simulator struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	tagShift  uint
	assoc     int

	// ways is one slab of Sets*Associativity lines. Set i is
	// ways[i*assoc : i*assoc+fill[i]], ordered most- to least-recently
	// used; the ways past its fill count are free.
	ways []line
	fill []int32

	// saved is the snapshot SaveState takes and SameState compares
	// against, as AppendState encodes it; hasSaved tells an empty
	// snapshot from none.
	saved    []uint64
	hasSaved bool

	// Per-structure counters: IDs in [0, denseStructIDs) index dense
	// directly; any other ID (negative, or large, as a hand-written or
	// hostile trace file may carry) lives in sparse, allocated on first
	// sight, so memory follows the IDs seen, never an ID's value. A
	// structure counts as seen once its accesses are non-zero.
	dense      [denseStructIDs]counters
	sparse     map[StructID]*counters
	structName map[StructID]string

	// steady is RefConsumer's period state, allocated at the first
	// boundary; Consumer and Reset clear it. extrapolated and
	// extrapolatedRefs count the periods it has added rather than
	// simulated, and the references they held.
	steady                         *steadyState
	extrapolated, extrapolatedRefs int64

	// group holds the references of a strided group while
	// AccessStrided walks it.
	group [maxGroup]Ref

	// Tracing state, attached by Trace; nil until then and nil-safe
	// everywhere, so the untraced miss path pays one nil check and the
	// hit path none.
	tk           *tracez.Track
	progress     *tracez.Counter
	tracedMisses int64
}

// denseStructIDs bounds the array-indexed per-structure counters. A
// trace.Registry numbers structures 1, 2, ... in allocation order, so
// every structure of a real workload lands in the dense range.
const denseStructIDs = 256

// progressMask throttles the traced progress counter: one sample every
// 2^18 misses keeps a multi-hundred-million-reference replay's trace at
// a few hundred counter events.
const progressMask = 1<<18 - 1

// NewSimulator builds a simulator for the given geometry. Config.Validate
// bounds the geometry before the line slab is allocated.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{}
	s.init(cfg)
	return s, nil
}

// init makes s an empty simulator of cfg, a valid geometry.
func (s *Simulator) init(cfg Config) {
	*s = Simulator{
		cfg:        cfg,
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint64(cfg.Sets - 1),
		tagShift:   uint(bits.TrailingZeros(uint(cfg.Sets))),
		assoc:      cfg.Associativity,
		ways:       make([]line, cfg.Lines()),
		fill:       make([]int32, cfg.Sets),
		sparse:     make(map[StructID]*counters),
		structName: make(map[StructID]string),
	}
	s.empty()
}

// Config returns the geometry the simulator was built with.
func (s *Simulator) Config() Config { return s.cfg }

// Label associates a human-readable name with a structure ID for reporting.
func (s *Simulator) Label(id StructID, name string) { s.structName[id] = name }

// Access presents a single memory reference of the given byte size starting
// at addr, attributed to owner. References spanning multiple cache lines are
// split, as real hardware would.
//
// A single-line reference is first tested against its set's
// most-recently-used way: the common case, a hit there, costs one tag
// compare, one counter and a dirty bit. Anything else goes to lookup.
//
//dvf:hotpath
func (s *Simulator) Access(addr uint64, size uint32, write bool, owner StructID) {
	blk := addr >> s.lineShift
	if size > 1 {
		if last := (addr + uint64(size) - 1) >> s.lineShift; last != blk {
			s.accessSpan(blk, last, write, owner)
			return
		}
	}
	setIdx := blk & s.setMask
	tag := blk >> s.tagShift
	if mru := &s.ways[int(setIdx)*s.assoc]; mru.tag == tag && tag != emptyTag {
		s.count(owner).accesses++
		mru.dirty = mru.dirty || write
		return
	}
	s.lookup(setIdx, tag, write, owner)
}

// Ref is one reference of the group AccessRun repeats: the arguments of
// one Access call.
type Ref struct {
	Addr  uint64
	Size  uint32
	Write bool
	Owner StructID
}

// AccessRun presents the group refs times over, pass after pass: the
// same as calling Access for every reference of every pass. Only the
// first pass is simulated when it leaves every block of the group
// resident, that is when the group's lines fit in the ways of their
// sets. By the LRU stack property, each later pass then hits on every
// block and leaves every set as the first pass left it: the group's
// lines on top in the order of their last references, their dirty bits
// already set by the first pass's writes, and no eviction. Those passes
// are charged to each reference's owner as hits, one access per block.
// A group that does not fit is simulated pass by pass.
func (s *Simulator) AccessRun(refs []Ref, times int) { s.accessRun(refs, times, false) }

// accessRun is AccessRun. oneBlock says that every reference presents
// exactly one block, as in a strided group's line run, so the blocks
// need not be counted.
func (s *Simulator) accessRun(refs []Ref, times int, oneBlock bool) {
	if times < 1 {
		return
	}
	blocks := len(refs)
	if !oneBlock {
		blocks = 0
	}
	for i := range refs {
		r := &refs[i]
		s.Access(r.Addr, r.Size, r.Write, r.Owner)
		if !oneBlock {
			blocks += s.blocks(r.Addr, r.Size)
		}
	}
	if times == 1 {
		return
	}
	// A group of at most Associativity blocks fits whatever sets its
	// blocks map to; a larger one fits when the first pass left every
	// block resident.
	if blocks > s.assoc {
		for i := range refs {
			if !s.resident(refs[i].Addr, refs[i].Size) {
				for ; times > 1; times-- {
					for j := range refs {
						r := &refs[j]
						s.Access(r.Addr, r.Size, r.Write, r.Owner)
					}
				}
				return
			}
		}
	}
	more := int64(times - 1)
	for i := range refs {
		r := &refs[i]
		n := more
		if !oneBlock {
			n *= int64(s.blocks(r.Addr, r.Size))
		}
		s.count(r.Owner).accesses += n
	}
}

// blocks returns how many blocks Access presents for a reference: none
// when it wraps past the top of the address space.
func (s *Simulator) blocks(addr uint64, size uint32) int {
	first, last := s.span(addr, size)
	if last < first {
		return 0
	}
	return int(last-first) + 1
}

// span returns the first and last block Access presents for a reference;
// last < first when it presents none (the reference wraps past the top
// of the address space).
func (s *Simulator) span(addr uint64, size uint32) (first, last uint64) {
	first = addr >> s.lineShift
	if size <= 1 {
		return first, first
	}
	return first, (addr + uint64(size) - 1) >> s.lineShift
}

// resident reports whether every block of the reference is in the cache.
func (s *Simulator) resident(addr uint64, size uint32) bool {
	first, last := s.span(addr, size)
	for blk := first; blk <= last; blk++ {
		setIdx, tag := blk&s.setMask, blk>>s.tagShift
		base := int(setIdx) * s.assoc
		found := false
		for _, ln := range s.ways[base : base+int(s.fill[setIdx])] {
			if ln.tag == tag {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		if blk == last {
			break // last may be the top block, where blk++ would wrap
		}
	}
	return true
}

// Consumer returns the simulator as a trace.Consumer whose Access calls
// straight into Simulator.Access, with no closure in between. It starts
// a new stream: the period state of an earlier consumer is dropped, so
// take one consumer per kernel run.
func (s *Simulator) Consumer() RefConsumer {
	s.steady = nil
	return RefConsumer{s}
}

// RefConsumer adapts a Simulator to trace.GroupConsumer;
// Simulator.Consumer returns one. It is a value type holding only the
// simulator pointer, so storing it in a trace.Consumer does not allocate.
type RefConsumer struct{ s *Simulator }

// steadyState is what RefConsumer.EndPeriod keeps between boundaries:
// the counters at the last one, and once the stream has proved that the
// rest repeats, the counter delta of each later period.
type steadyState struct {
	saved   bool
	stopped bool
	base    [denseStructIDs]counters
	delta   [denseStructIDs]counters
}

// EndPeriod implements trace.GroupConsumer. At each boundary it
// snapshots the cache state and the counters, and it stops the stream
// once the period just ended proves that every later one repeats:
//
//   - when the period ended in the state the last snapshot holds,
//     every later period repeats its counter deltas exactly (see
//     SameState);
//   - when the period evicted nothing, every block it touched is still
//     resident, so each later period, the same references, hits on
//     every access and leaves the state unchanged: its delta is its
//     accesses, with no miss, writeback or eviction.
//
// At each later boundary it adds the delta instead of simulating the
// period. It uses, and overwrites, the SaveState snapshot. A stream with
// out-of-range structure IDs is simulated in full.
func (c RefConsumer) EndPeriod(refs int64) bool {
	s := c.s
	st := s.steady
	if st == nil {
		st = &steadyState{}
		s.steady = st
	}
	if st.stopped {
		for i := range s.dense {
			s.dense[i].add(&st.delta[i])
		}
		s.extrapolated++
		s.extrapolatedRefs += refs
		return true
	}
	if len(s.sparse) > 0 {
		return false
	}
	if st.saved {
		var evictions int64
		for i := range s.dense {
			d := s.dense[i]
			d.sub(&st.base[i])
			st.delta[i] = d
			evictions += d.evictions
		}
		if evictions == 0 {
			for i := range st.delta {
				st.delta[i] = counters{accesses: st.delta[i].accesses}
			}
			st.stopped = true
			return true
		}
		if s.SameState() {
			st.stopped = true
			return true
		}
	}
	s.SaveState()
	st.base = s.dense
	st.saved = true
	return false
}

// Access presents r to the simulator, attributed to owner.
//
//dvf:hotpath
func (c RefConsumer) Access(r trace.Ref, owner int32) {
	c.s.Access(r.Addr, r.Size, r.Write, StructID(owner))
}

// accessSpan presents blocks first..last of one multi-line reference. A
// reference whose end wraps past the top of the address space
// (last < first) touches no block.
//
//dvf:hotpath
func (s *Simulator) accessSpan(first, last uint64, write bool, owner StructID) {
	for blk := first; blk <= last; blk++ {
		s.lookup(blk&s.setMask, blk>>s.tagShift, write, owner)
		if blk == last {
			return // last may be the top block, where blk++ would wrap
		}
	}
}

// lookup presents one block by scanning its set: a hit moves to the
// front; a miss loads the block, evicting the set's LRU line when every
// way is full. Access calls it once the MRU way has not matched;
// accessSpan calls it for every block.
//
//dvf:hotpath
func (s *Simulator) lookup(setIdx, tag uint64, write bool, owner StructID) {
	c := s.count(owner)
	c.accesses++
	base := int(setIdx) * s.assoc
	set := s.ways[base : base+s.assoc]
	n := int(s.fill[setIdx])
	for i := range set[:n] {
		if set[i].tag == tag {
			hit := set[i]
			hit.dirty = hit.dirty || write
			copy(set[1:i+1], set[:i])
			set[0] = hit
			return
		}
	}
	c.misses++
	if n < len(set) {
		n++
		s.fill[setIdx] = int32(n)
	} else {
		s.evict(set[n-1])
	}
	copy(set[1:n], set[:n-1])
	set[0] = line{tag: tag, owner: owner, dirty: write}
	if s.progress != nil {
		s.sampleProgress()
	}
}

// evict charges a capacity or conflict eviction, and its writeback when
// the line is dirty, to the line's owner.
func (s *Simulator) evict(victim line) {
	c := s.count(victim.owner)
	c.evictions++
	if victim.dirty {
		c.writebacks++
	}
}

// sampleProgress feeds the traced progress counter: the total access
// count, once every 2^18 misses.
func (s *Simulator) sampleProgress() {
	s.tracedMisses++
	if s.tracedMisses&progressMask == 0 {
		s.progress.Sample(s.TotalStats().Accesses)
	}
}

// missed presents one reference like Access and reports whether any of
// its blocks missed. Every block of a reference belongs to owner, so the
// owner's miss count moving is exactly that.
func (s *Simulator) missed(addr uint64, size uint32, write bool, owner StructID) bool {
	c := s.count(owner)
	before := c.misses
	s.Access(addr, size, write, owner)
	return c.misses != before
}

// empty invalidates every line: each set's fill count drops to zero and
// its MRU way takes emptyTag.
func (s *Simulator) empty() {
	clear(s.fill)
	for i := 0; i < len(s.ways); i += s.assoc {
		s.ways[i].tag = emptyTag
	}
}

// Flush writes back all dirty lines and invalidates the cache, counting the
// writebacks against their owners. Flushing at the end of a region of
// interest makes the writeback count independent of what runs afterwards.
func (s *Simulator) Flush() {
	sp := s.tk.Begin("cache.flush")
	defer sp.End()
	for set, n := range s.fill {
		base := set * s.assoc
		for _, ln := range s.ways[base : base+int(n)] {
			if ln.dirty {
				s.count(ln.owner).writebacks++
			}
		}
	}
	s.empty()
}

// Reset clears cache contents and all counters.
func (s *Simulator) Reset() {
	sp := s.tk.Begin("cache.reset")
	defer sp.End()
	s.empty()
	s.dense = [denseStructIDs]counters{}
	clear(s.sparse)
	s.steady, s.extrapolated, s.extrapolatedRefs = nil, 0, 0
}

// SaveState snapshots the cache contents, replacing any earlier
// snapshot. The counters are not state. The snapshot holds only the
// valid lines, so a working set smaller than the cache costs less than
// the line slab; it is allocated on the first save and grows only when
// the cache holds more lines than at any earlier save.
func (s *Simulator) SaveState() {
	s.saved = s.AppendState(s.saved[:0])
	s.hasSaved = true
}

// SameState reports whether the cache contents equal the last SaveState
// snapshot; it is false before the first save. A simulator's response to
// a reference depends only on its contents, so one reference sequence
// presented to two equal states changes every counter by the same amount
// and leaves equal states behind.
func (s *Simulator) SameState() bool { return s.hasSaved && s.SameAs(s.saved) }

// StateLen returns the length of AppendState's encoding of the current
// contents: two words per valid line.
func (s *Simulator) StateLen() int {
	valid := 0
	for _, n := range s.fill {
		valid += int(n)
	}
	return 2 * valid
}

// StateCap returns the length of the encoding of a full cache: two
// words per line, as many bytes as the line slab.
func (s *Simulator) StateCap() int { return 2 * len(s.ways) }

// AppendState appends an encoding of the cache contents to dst: for
// each valid line, set after set and from most to least recently used,
// its block number, then its owner and dirty bit. A block number
// carries its set, so the encoding fixes every set's fill count too,
// and two simulators hold equal contents exactly when their encodings
// are equal. The counters are not state.
func (s *Simulator) AppendState(dst []uint64) []uint64 {
	// Grown by hand rather than by slices.Grow, whose append of a made
	// slice allocates that slice too under the race detector: the bytes
	// a walk allocates are then the same in every build.
	if n := s.StateLen(); cap(dst)-len(dst) < n {
		grown := make([]uint64, len(dst), max(len(dst)+n, 2*cap(dst)))
		copy(grown, dst)
		dst = grown
	}
	for set, n := range s.fill {
		base := set * s.assoc
		for _, ln := range s.ways[base : base+int(n)] {
			dst = append(dst, ln.tag<<s.tagShift|uint64(set), lineMeta(ln))
		}
	}
	return dst
}

// SameAs reports whether the cache contents are those snap encodes (see
// AppendState).
func (s *Simulator) SameAs(snap []uint64) bool {
	if len(snap) != s.StateLen() {
		return false
	}
	i := 0
	for set, n := range s.fill {
		base := set * s.assoc
		for _, ln := range s.ways[base : base+int(n)] {
			if snap[i] != ln.tag<<s.tagShift|uint64(set) || snap[i+1] != lineMeta(ln) {
				return false
			}
			i += 2
		}
	}
	return true
}

// lineMeta is the second word of a line's encoding: its owner, then its
// dirty bit.
func lineMeta(ln line) uint64 {
	m := uint64(uint32(ln.owner)) << 1
	if ln.dirty {
		m |= 1
	}
	return m
}

// Evictions returns the lines evicted since the simulator was built or
// Reset, summed over the structures.
func (s *Simulator) Evictions() int64 { return s.TotalStats().Evictions }

// count returns id's counters. A dense ID is an array slot; only an ID
// outside the dense range takes the call to sparseCount.
func (s *Simulator) count(id StructID) *counters {
	if i := uint32(id); i < denseStructIDs {
		return &s.dense[i]
	}
	return s.sparseCount(id)
}

// sparseCount is the map fallback of count, creating id's counters on
// first sight. It stays out of line so count, and with it the MRU hit
// path, stays small enough to inline.
//
//go:noinline
func (s *Simulator) sparseCount(id StructID) *counters {
	if c, ok := s.sparse[id]; ok {
		return c
	}
	//dvf:allow hotalloc one allocation per out-of-range structure ID on first sight, not per access; a registry-numbered workload never takes this branch
	c := &counters{}
	s.sparse[id] = c
	return c
}

// StructStats returns the counters attributed to id (zero Stats if unseen).
func (s *Simulator) StructStats(id StructID) Stats {
	if i := uint32(id); i < denseStructIDs {
		return s.dense[i].stats()
	}
	if c := s.sparse[id]; c != nil {
		return c.stats()
	}
	return Stats{}
}

// TotalStats returns the counters aggregated over all structures, summed
// when it is called.
func (s *Simulator) TotalStats() Stats {
	var t counters
	for i := range s.dense {
		t.add(&s.dense[i])
	}
	for _, c := range s.sparse {
		//dvf:allow determinism integer sums commute, so the total is the same in any iteration order
		t.add(c)
	}
	return t.stats()
}

// PerStructStats returns a copy of every seen structure's counters.
func (s *Simulator) PerStructStats() map[StructID]Stats {
	out := make(map[StructID]Stats, len(s.sparse))
	for id := range s.dense {
		if c := &s.dense[id]; c.accesses > 0 {
			out[StructID(id)] = c.stats()
		}
	}
	for id, c := range s.sparse {
		if c.accesses > 0 {
			out[id] = c.stats()
		}
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
// counter carrying the total access count, sampled every 2^18 misses. A
// nil recorder leaves the simulator untraced; the miss path then pays one
// nil check and the MRU hit path none. Call it before the first Access,
// from the feeding goroutine.
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
// ".writebacks"), and as "<prefix>.periods_extrapolated" the number of
// periods RefConsumer counted without simulating them. The counters are
// maintained by the simulation itself, so publishing is one sum over the
// structures and a handful of gauge stores at reporting time — the hot
// path is never touched.
func (s *Simulator) PublishStats(sink metrics.Sink, prefix string) {
	if sink == nil {
		return
	}
	st := s.TotalStats()
	sink.Gauge(prefix + ".accesses").Set(st.Accesses)
	sink.Gauge(prefix + ".hits").Set(st.Hits)
	sink.Gauge(prefix + ".misses").Set(st.Misses)
	sink.Gauge(prefix + ".evictions").Set(st.Evictions)
	sink.Gauge(prefix + ".writebacks").Set(st.Writebacks)
	sink.Gauge(prefix + ".periods_extrapolated").Set(s.extrapolated)
}

// Extrapolated returns how many periods RefConsumer has counted without
// simulating them since the simulator was built or Reset, and how many
// references those periods held.
func (s *Simulator) Extrapolated() (periods, refs int64) {
	return s.extrapolated, s.extrapolatedRefs
}

// ResidentBlocks returns how many valid lines currently belong to id,
// useful for occupancy assertions in tests.
func (s *Simulator) ResidentBlocks(id StructID) int {
	resident := 0
	for set, n := range s.fill {
		base := set * s.assoc
		for _, ln := range s.ways[base : base+int(n)] {
			if ln.owner == id {
				resident++
			}
		}
	}
	return resident
}

// Report renders a deterministic per-structure summary table.
func (s *Simulator) Report() string {
	return renderReport(s.cfg, s.PerStructStats(), s.TotalStats(), s.structName)
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
