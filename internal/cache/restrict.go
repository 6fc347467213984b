package cache

import (
	"fmt"
	"math/bits"
)

// SetSimulator simulates only some sets of a cache geometry: those that
// hold the lines of one address range, the kept sets. The sets of a
// set-associative LRU cache never interact: a reference changes only its
// own set, and whether it hits, misses or evicts depends only on that
// set. So every reference to a kept set counts exactly as in a Simulator
// of the whole geometry, and a reference to any other set is dropped
// uncounted. The structure whose lines chose the kept sets gets exactly
// the counters a Simulator would give it; any other structure's counters
// hold only its references to the kept sets.
//
// The kept sets are the lines' consecutive sets, wrapping past the last
// one. They are simulated by a Simulator of their own, whose set i is
// kept set i, so the line slab and the state encodings grow with the
// kept sets, not with the geometry.
type SetSimulator struct {
	sim       Simulator
	lineShift uint
	setMask   uint64 // of the whole geometry
	tagShift  uint   // of the whole geometry
	first     uint64 // the first kept set
	kept      uint64 // how many sets are kept
	slotShift uint   // log2 of sim's set count
	all       bool   // every set is kept: sim is the whole geometry, its set i set i
}

// NewSetSimulator builds a simulator of cfg that keeps the sets holding
// the lines of the size bytes at base.
func NewSetSimulator(cfg Config, base, size uint64) (*SetSimulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if size == 0 || base+size-1 < base {
		return nil, fmt.Errorf("cache: set range of %d bytes at %#x is empty or wraps", size, base)
	}
	lineShift := uint(bits.TrailingZeros(uint(cfg.LineSize)))
	firstBlock, lastBlock := base>>lineShift, (base+size-1)>>lineShift
	kept := min(lastBlock-firstBlock+1, uint64(cfg.Sets))
	inner := cfg
	inner.Sets = 1 << bits.Len64(kept-1)
	s := &SetSimulator{
		lineShift: lineShift,
		setMask:   uint64(cfg.Sets - 1),
		tagShift:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		first:     firstBlock & uint64(cfg.Sets-1),
		kept:      kept,
		slotShift: uint(bits.TrailingZeros(uint(inner.Sets))),
		all:       kept == uint64(cfg.Sets),
	}
	s.sim.init(inner)
	return s, nil
}

// block returns the block of sim that stands for blk, and whether blk
// maps to a kept set at all.
func (s *SetSimulator) block(blk uint64) (uint64, bool) {
	slot := (blk - s.first) & s.setMask
	return blk>>s.tagShift<<s.slotShift | slot, slot < s.kept
}

// Touches reports whether any line of the size bytes at addr maps to a
// kept set.
func (s *SetSimulator) Touches(addr, size uint64) bool {
	if size == 0 {
		size = 1
	}
	first, last := addr>>s.lineShift, (addr+size-1)>>s.lineShift
	// The lines take consecutive slots from first's, wrapping past the
	// last set to slot 0, which is kept.
	slot, lines := (first-s.first)&s.setMask, last-first+1
	return slot < s.kept || lines-1 > s.setMask-slot
}

// Access presents a reference as Simulator.Access does, dropping the
// blocks that map to sets the simulator does not keep.
func (s *SetSimulator) Access(addr uint64, size uint32, write bool, owner StructID) {
	if s.all {
		s.sim.Access(addr, size, write, owner)
		return
	}
	first, last := s.sim.span(addr, size)
	if last < first {
		return
	}
	for blk := first; ; blk++ {
		if b, ok := s.block(blk); ok {
			s.sim.Access(b<<s.lineShift, 1, write, owner)
		}
		if blk == last {
			return // last may be the top block, where blk++ would wrap
		}
	}
}

// AccessStrided presents a strided group as Simulator.AccessStrided
// does, by line runs, dropping the references to sets it does not keep.
// A run's references to kept sets stay in their lines for the whole
// run, so they are a line run of their own.
func (s *SetSimulator) AccessStrided(refs []Ref, strides []int64, steps int) {
	if s.all {
		s.sim.AccessStrided(refs, strides, steps)
		return
	}
	line := int64(1) << s.lineShift
	byRuns := len(refs) <= maxGroup
	for _, st := range strides {
		byRuns = byRuns && st < line && -st < line
	}
	if !byRuns {
		for k := range steps {
			for e := range refs {
				r := &refs[e]
				s.Access(r.Addr+uint64(int64(k)*strides[e]), r.Size, r.Write, r.Owner)
			}
		}
		return
	}
	// The group, advanced run by run, and one run's references to kept
	// sets.
	var group, inKept [maxGroup]Ref
	g := group[:len(refs)]
	copy(g, refs)
	for left := int64(steps); left > 0; {
		run := left
		for e := range g {
			run = min(run, StepsInLine(int64(g[e].Addr), max(int64(g[e].Size), 1), strides[e], line))
		}
		if run == 1 {
			for e := range g {
				s.Access(g[e].Addr, g[e].Size, g[e].Write, g[e].Owner)
			}
		} else {
			kept := inKept[:0]
			for _, r := range g {
				if b, ok := s.block(r.Addr >> s.lineShift); ok {
					r.Addr = b<<s.lineShift | r.Addr&uint64(line-1)
					kept = append(kept, r)
				}
			}
			s.sim.accessRun(kept, int(run), true)
		}
		for e := range g {
			g[e].Addr += uint64(run * strides[e])
		}
		left -= run
	}
}

// AddHits charges n accesses to owner as hits, for references the
// caller has proved would hit and leave the state as it is.
func (s *SetSimulator) AddHits(owner StructID, n int64) { s.sim.count(owner).accesses += n }

// StructStats returns the counters of id's references to the kept sets.
func (s *SetSimulator) StructStats(id StructID) Stats { return s.sim.StructStats(id) }

// StateLen returns the length of AppendState's encoding.
func (s *SetSimulator) StateLen() int { return s.sim.StateLen() }

// StateCap returns the length of the encoding of full kept sets.
func (s *SetSimulator) StateCap() int { return 2 * int(s.kept) * s.sim.assoc }

// AppendState appends an encoding of the kept sets' contents to dst, as
// Simulator.AppendState does.
func (s *SetSimulator) AppendState(dst []uint64) []uint64 { return s.sim.AppendState(dst) }

// SameAs reports whether the kept sets' contents are those snap encodes.
func (s *SetSimulator) SameAs(snap []uint64) bool { return s.sim.SameAs(snap) }

// Evictions returns the lines evicted from the kept sets.
func (s *SetSimulator) Evictions() int64 { return s.sim.Evictions() }
