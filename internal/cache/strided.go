package cache

import (
	"math"
	"math/bits"

	"github.com/resilience-models/dvf/internal/trace"
)

// maxGroup is the most elements a strided group may have to be walked by
// line runs; the largest group a kernel emits is MG's prolong, with 17.
// A larger group is presented element by element.
const maxGroup = 20

// AccessStrided presents a strided group: steps iterations of an inner
// loop in which element e makes refs[e] moved by strides[e] bytes per
// step. It is the same as calling Access for every element of every
// step, step after step. The walk goes by line runs: while every element
// stays in the line it is in (StepsInLine), consecutive steps present
// the same blocks, so a run of more than one step is one AccessRun. A
// one-step run, always the case when a line holds at most one element,
// is plain Access calls. refs is not modified.
//
//dvf:hotpath
func (s *Simulator) AccessStrided(refs []Ref, strides []int64, steps int) {
	if len(refs) > len(s.group) {
		s.eachStep(refs, strides, steps)
		return
	}
	g := s.group[:len(refs)]
	copy(g, refs)
	s.walkStrided(g, strides, steps)
}

// AccessStrided implements trace.GroupConsumer: it presents the group
// as Simulator.AccessStrided does, each reference attributed to its
// owner.
//
//dvf:hotpath
func (c RefConsumer) AccessStrided(refs []trace.Ref, owners []int32, strides []int64, steps int) {
	s := c.s
	if len(refs) > len(s.group) {
		for k := range steps {
			for e := range refs {
				r := &refs[e]
				s.Access(r.Addr+uint64(int64(k)*strides[e]), r.Size, r.Write, StructID(owners[e]))
			}
		}
		return
	}
	g := s.group[:len(refs)]
	for e, r := range refs {
		g[e] = Ref{Addr: r.Addr, Size: r.Size, Write: r.Write, Owner: StructID(owners[e])}
	}
	s.walkStrided(g, strides, steps)
}

// walkStrided is AccessStrided's line-run walk over g, the group's
// step-0 references, which it advances step by step in place.
//
//dvf:hotpath
func (s *Simulator) walkStrided(g []Ref, strides []int64, steps int) {
	line := int64(s.cfg.LineSize)
	for _, st := range strides {
		if st >= line || -st >= line {
			// This element leaves its line at every step, so every
			// run is one step.
			s.eachStep(g, strides, steps)
			return
		}
	}
	for left := int64(steps); left > 0; {
		run := left
		for e := range g {
			// A reference of size 0 presents one block, as one of size 1.
			run = min(run, StepsInLine(int64(g[e].Addr), max(int64(g[e].Size), 1), strides[e], line))
		}
		if run == 1 {
			for e := range g {
				r := &g[e]
				s.Access(r.Addr, r.Size, r.Write, r.Owner)
			}
		} else {
			// Every element stays inside one line for the whole run.
			s.accessRun(g, int(run), true)
		}
		for e := range g {
			g[e].Addr += uint64(run * strides[e])
		}
		left -= run
	}
}

// eachStep presents the group step by step and, within a step, element
// by element.
//
//dvf:hotpath
func (s *Simulator) eachStep(refs []Ref, strides []int64, steps int) {
	for k := range steps {
		for e := range refs {
			r := &refs[e]
			s.Access(r.Addr+uint64(int64(k)*strides[e]), r.Size, r.Write, r.Owner)
		}
	}
}

// StepsInLine returns how many consecutive steps, this one included, an
// element of size bytes at byte address addr stays inside the line of
// lineSize bytes (a power of two) that holds it, moving stride bytes per
// step. Only addr's offset within its line matters, so an address above
// 2^63 may be passed as its two's-complement int64. An element that
// already spans a line boundary gets 1; one that never moves (stride 0)
// is never bounded. A power-of-two stride, the case of every kernel's
// 8- and 16-byte steps, divides by a shift.
func StepsInLine(addr, size, stride, lineSize int64) int64 {
	off := addr & (lineSize - 1)
	room := lineSize - off - size // bytes the element can still move up
	if room < 0 {
		return 1
	}
	if stride < 0 {
		// Moving down, the room is the offset. -math.MinInt64 overflows
		// to itself, a power of two whose shift of 63 gives 0 steps more.
		room, stride = off, -stride
	}
	switch {
	case stride == 0:
		return math.MaxInt64
	case room < stride && stride > 0:
		return 1
	case stride&(stride-1) == 0:
		return int64(uint64(room)>>bits.TrailingZeros64(uint64(stride))) + 1
	}
	return room/stride + 1
}
