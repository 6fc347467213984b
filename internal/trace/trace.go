// Package trace provides the memory-reference instrumentation substrate
// that replaces the Pin-based collector of the DVF paper (Section IV).
//
// The paper instruments x86 binaries with Pin to collect an
// (address, size, read/write) reference stream scoped to the computation
// region of interest, then feeds the stream into a cache simulator. Here,
// the numerical kernels are instrumented at the source level: each kernel
// allocates its major data structures through a Registry, which assigns
// them disjoint simulated address ranges, and emits a Ref through a Memory
// for every element it touches. Any Consumer (typically the cache
// simulator, via an adapter) observes exactly the stream Pin would have
// produced for the same algorithm.
package trace

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
)

// Ref is a single memory reference.
type Ref struct {
	Addr  uint64 // simulated virtual address
	Size  uint32 // bytes touched
	Write bool   // true for stores
}

// Consumer observes a reference stream. Implementations must tolerate
// references in any order; Access is called once per reference.
type Consumer interface {
	Access(r Ref, owner int32)
}

// ConsumerFunc adapts a function to the Consumer interface.
type ConsumerFunc func(r Ref, owner int32)

// Access calls f(r, owner).
func (f ConsumerFunc) Access(r Ref, owner int32) { f(r, owner) }

// Region is a named, contiguous simulated address range owned by one data
// structure. Regions are handed out by a Registry and never overlap.
type Region struct {
	ID   int32  // per-registry identifier, starting at 1 (0 = unattributed)
	Name string // data structure name, e.g. "A" or "T"
	Base uint64 // first simulated address
	Size uint64 // length in bytes
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// String returns "name[base,base+size)".
func (r Region) String() string {
	return fmt.Sprintf("%s[%#x,%#x)", r.Name, r.Base, r.Base+r.Size)
}

// regionAlign is the allocation granularity of the registry. Aligning every
// region to a generous boundary keeps distinct structures from sharing a
// cache line, which would otherwise blur per-structure attribution (and is
// what real allocators achieve with page-aligned large allocations).
const regionAlign = 4096

// Registry allocates disjoint address ranges to named data structures.
type Registry struct {
	next    uint64
	regions []Region
}

// NewRegistry creates an empty registry. The address space starts above
// zero so that a zero address can never be mistaken for a valid element.
func NewRegistry() *Registry {
	return &Registry{next: regionAlign}
}

// Alloc reserves size bytes for the named structure and returns its region.
// A zero size is allowed (the region then contains no addresses).
func (g *Registry) Alloc(name string, size uint64) Region {
	r := Region{
		ID:   int32(len(g.regions) + 1),
		Name: name,
		Base: g.next,
		Size: size,
	}
	g.regions = append(g.regions, r)
	g.next += (size + regionAlign - 1) / regionAlign * regionAlign
	if size%regionAlign == 0 {
		g.next += regionAlign // keep a guard gap between regions
	}
	return r
}

// Regions returns all allocated regions in allocation order.
func (g *Registry) Regions() []Region {
	out := make([]Region, len(g.regions))
	copy(out, g.regions)
	return out
}

// Lookup returns the region containing addr, or false when the address is
// unattributed. Runs in O(log n) over the allocated regions.
func (g *Registry) Lookup(addr uint64) (Region, bool) {
	i := sort.Search(len(g.regions), func(i int) bool {
		return g.regions[i].Base+g.regions[i].Size > addr
	})
	if i < len(g.regions) && g.regions[i].Contains(addr) {
		return g.regions[i], true
	}
	return Region{}, false
}

// Memory couples a registry with a consumer and offers the element-level
// instrumentation calls the kernels use. All methods are cheap wrappers so
// that instrumentation stays readable at algorithm call sites:
//
//	mem.LoadN(a, i, 8)   // read  the 8-byte element a[i]
//	mem.StoreN(c, i, 8)  // write the 8-byte element c[i]
//
// An affine inner loop can also be emitted whole, as a strided group
// (Strided); see TakesGroups for when a kernel may do so.
//
// A kernel whose stream repeats marks its period boundaries with Period.
// When the consumer is a GroupConsumer and reports a steady state at a
// boundary, the Memory stops delivering references and lets the consumer
// count each later period itself; Refs still counts every reference.
type Memory struct {
	reg  *Registry
	sink Consumer // nil when discarding, or once a GroupConsumer stopped
	refs int64

	// group is the sink when it implements GroupConsumer, nil otherwise.
	// It is told of strided groups and period boundaries.
	group GroupConsumer
	// mark is Refs at the last boundary. Once group stopped, steady is
	// the length of the period at whose end it did.
	mark, steady int64
	stopped      bool
	err          error

	// The step-0 references, owners and strides Strided hands to
	// group, reused from call to call.
	groupRefs    []Ref
	groupOwners  []int32
	groupStrides []int64
}

// GroupConsumer is a Consumer that takes a reference stream in the two
// shapes a kernel may give it whole: strided groups and periods.
//
// AccessStrided takes steps iterations of an inner loop in which element
// e makes refs[e], owned by owners[e], moved by strides[e] bytes per
// step. It must act exactly as the element loop's Access calls would,
// step after step and within a step element after element:
//
//	for k := 0; k < steps; k++ {
//		for e := range refs {
//			r := refs[e]
//			r.Addr += uint64(int64(k) * strides[e])
//			c.Access(r, owners[e])
//		}
//	}
//
// It must not retain the slices.
//
// Memory calls EndPeriod at each boundary a kernel marks with Period,
// passing the number of references the period held. Once EndPeriod
// returns true the consumer has reached a steady state: it receives no
// further references, and at every later boundary EndPeriod must count
// one more period, of the same references as the one that ended where
// it stopped, and return true again. A consumer that never stops
// returns false.
//
// A consumer that must see the data between two references (the
// kernels' fault injector, which flips a bit at an exact reference)
// does not implement it; neither do Recorder, WriterV2 and
// ConsumerFunc, which receive every reference one at a time.
type GroupConsumer interface {
	Consumer
	AccessStrided(refs []Ref, owners []int32, strides []int64, steps int)
	EndPeriod(refs int64) (stop bool)
}

// ErrPartialPeriod reports that references made while a GroupConsumer
// was stopped do not form whole periods, so the consumer cannot have
// counted them: the stream ended, or reached a boundary, part-way through
// a period.
var ErrPartialPeriod = errors.New("trace: references outside a whole period were withheld from a stopped consumer")

// NewMemory builds a Memory that reports references to sink. A nil sink
// discards references (useful when only the algorithm's result is needed).
func NewMemory(reg *Registry, sink Consumer) *Memory {
	m := &Memory{reg: reg, sink: sink}
	m.group, _ = sink.(GroupConsumer)
	return m
}

// Registry returns the underlying registry.
func (m *Memory) Registry() *Registry { return m.reg }

// Refs returns the number of references made so far, delivered or not.
func (m *Memory) Refs() int64 { return m.refs }

// TakesGroups reports whether no consumer needs the references of a
// strided group one at a time: the sink is nil or a GroupConsumer. A
// kernel may then emit an inner loop's references with Strided and
// compute the loop on its raw data afterwards.
func (m *Memory) TakesGroups() bool { return m.sink == nil || m.group != nil }

// Period marks the end of one period of the stream. Every period after
// the first boundary must make the same references in the same order;
// what precedes the first boundary is free. A stopped consumer is told
// of the period only when it is as long as the period it stopped at.
func (m *Memory) Period() {
	if m.group == nil || m.err != nil {
		return
	}
	n := m.refs - m.mark
	m.mark = m.refs
	if m.stopped && n != m.steady {
		m.err = fmt.Errorf("%w: a period of %d references after a steady period of %d", ErrPartialPeriod, n, m.steady)
		return
	}
	if m.group.EndPeriod(n) && !m.stopped {
		m.sink, m.steady, m.stopped = nil, n, true
	}
}

// Err reports ErrPartialPeriod when references were withheld from a
// stopped consumer that it could not count: a period of another length,
// or references after the last boundary. A kernel that marks periods
// checks it before returning its counts; nil means every reference
// reached the consumer or lies in a period it counted.
func (m *Memory) Err() error {
	if m.err == nil && m.stopped && m.refs != m.mark {
		return fmt.Errorf("%w: %d references after the last boundary", ErrPartialPeriod, m.refs-m.mark)
	}
	return m.err
}

// Load emits a read of size bytes at byte offset off within region r.
func (m *Memory) Load(r Region, off uint64, size uint32) {
	m.emit(r, off, size, false)
}

// Store emits a write of size bytes at byte offset off within region r.
func (m *Memory) Store(r Region, off uint64, size uint32) {
	m.emit(r, off, size, true)
}

// LoadN emits a read of the idx-th element of elemSize bytes in region r.
func (m *Memory) LoadN(r Region, idx int, elemSize uint32) {
	m.emit(r, uint64(idx)*uint64(elemSize), elemSize, false)
}

// StoreN emits a write of the idx-th element of elemSize bytes in region r.
func (m *Memory) StoreN(r Region, idx int, elemSize uint32) {
	m.emit(r, uint64(idx)*uint64(elemSize), elemSize, true)
}

func (m *Memory) emit(r Region, off uint64, size uint32, write bool) {
	if !inBounds(off, size, r.Size) {
		panic(outOfBounds(r, off, size))
	}
	m.refs++
	if m.sink == nil {
		return
	}
	m.sink.Access(Ref{Addr: r.Base + off, Size: size, Write: write}, r.ID)
}

// inBounds reports whether size bytes at byte offset off lie inside a
// region of regionSize bytes. It cannot wrap: a negative index converted
// to an offset is far past regionSize, not below it.
func inBounds(off uint64, size uint32, regionSize uint64) bool {
	return off <= regionSize && uint64(size) <= regionSize-off
}

// outOfBounds is the panic message for an access that fails inBounds.
//
//go:noinline
func outOfBounds(r Region, off uint64, size uint32) string {
	return fmt.Sprintf("trace: access %s+%d(%dB) out of bounds", r, off, size)
}

// Strided is one element of a strided group: the reference an inner
// loop makes at its first step, and the bytes it moves per step.
type Strided struct {
	Region Region
	Off    uint64 // byte offset of the first step's reference within Region
	Size   uint32
	Write  bool
	Stride int64 // bytes moved per step; zero or negative allowed
}

// Strided emits steps iterations of an inner loop whose step k makes,
// element after element, the reference group[e] moved by k*Stride
// bytes: the same references, in the same order, as the LoadN/StoreN
// calls of the element loop. Before anything is delivered it checks
// each element's first and last step against its region; the steps
// between lie between them. A GroupConsumer receives the group at
// once, any other consumer reference by reference, and a nil or stopped
// sink none.
func (m *Memory) Strided(group []Strided, steps int) {
	if steps < 1 {
		return
	}
	for i := range group {
		g := &group[i]
		if !inBounds(g.Off, g.Size, g.Region.Size) {
			panic(outOfBounds(g.Region, g.Off, g.Size))
		}
		last, ok := lastOffset(g.Off, g.Stride, steps)
		if !ok {
			panic(fmt.Sprintf("trace: access %s+%d(%dB) moving %d bytes for %d steps out of bounds", g.Region, g.Off, g.Size, g.Stride, steps))
		}
		if !inBounds(last, g.Size, g.Region.Size) {
			panic(outOfBounds(g.Region, last, g.Size))
		}
	}
	m.refs += int64(steps) * int64(len(group))
	switch {
	case m.sink == nil:
	case m.group != nil:
		m.groupRefs, m.groupOwners, m.groupStrides = m.groupRefs[:0], m.groupOwners[:0], m.groupStrides[:0]
		for i := range group {
			g := &group[i]
			m.groupRefs = append(m.groupRefs, Ref{Addr: g.Region.Base + g.Off, Size: g.Size, Write: g.Write})
			m.groupOwners = append(m.groupOwners, g.Region.ID)
			m.groupStrides = append(m.groupStrides, g.Stride)
		}
		m.group.AccessStrided(m.groupRefs, m.groupOwners, m.groupStrides, steps)
	default:
		for k := range steps {
			for i := range group {
				g := &group[i]
				off := g.Off + uint64(int64(k)*g.Stride)
				m.sink.Access(Ref{Addr: g.Region.Base + off, Size: g.Size, Write: g.Write}, g.Region.ID)
			}
		}
	}
}

// lastOffset returns the byte offset at step steps-1 of an element at
// byte offset off that moves stride bytes per step, and false when that
// offset lies outside [0, 2^64).
func lastOffset(off uint64, stride int64, steps int) (uint64, bool) {
	mag := uint64(stride)
	if stride < 0 {
		mag = -mag
	}
	hi, span := bits.Mul64(uint64(steps-1), mag)
	if stride < 0 {
		return off - span, hi == 0 && span <= off
	}
	return off + span, hi == 0 && off+span >= off
}

// Recorder is a Consumer that stores the full stream, mainly for tests and
// for writing traces to disk via Encode.
type Recorder struct {
	Refs   []Ref
	Owners []int32
}

// Access appends the reference to the in-memory log.
func (rec *Recorder) Access(r Ref, owner int32) {
	rec.Refs = append(rec.Refs, r)
	rec.Owners = append(rec.Owners, owner)
}

// Len returns the number of recorded references.
func (rec *Recorder) Len() int { return len(rec.Refs) }
