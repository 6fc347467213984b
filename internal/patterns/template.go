package patterns

import (
	"slices"

	"github.com/resilience-models/dvf/internal/cache"
)

// TemplateCounter counts the template-based access pattern (Section
// III-C): data structures whose accesses follow an explicit, regular
// template — more structured than random access but not a plain stream
// (stencils, FFT butterflies, mesh traversals). Callers (like the Aspen
// evaluator) feed the template a block at a time, without materializing
// it.
//
// The paper's two-step algorithm over the cache-block template
// B = {b1, ..., bn}:
//
//  1. a block's first appearance costs one main-memory access;
//  2. a repeated appearance costs one main-memory access when the reuse
//     distance since its previous appearance exceeds the maximum available
//     cache capacity.
//
// The reuse distance is the LRU stack distance (the number of distinct
// blocks touched in between), which is the distance that decides
// residency in an LRU cache. The counter decides step 2 by running a
// fully associative LRU cache of capacity blocks rather than computing
// distances. This is exact by the LRU stack property: a block's stack
// distance is its depth in the recency stack, so a reuse has distance
// >= capacity exactly when the block has fallen out of the top capacity
// entries, i.e. out of the cache. Each distinct block owns one node in an
// intrusive recency list, so a visit costs O(1) and memory grows with the
// distinct blocks, not with the visits.
type TemplateCounter struct {
	capacity  int
	misses    int64
	visits    int64
	evictions int64

	// Block -> node index. dense[b] holds 1 + the node of block b, or 0
	// while b is unseen; blocks it does not cover live in sparse. dense
	// takes in only blocks below twice the distinct count plus
	// denseSlack, and grows to at most twice that, so it stays within
	// four times the distinct count plus 2*denseSlack entries. Hostile
	// block ids fall back to the map, allocated on first use, and memory
	// stays O(distinct blocks).
	dense    []int32
	sparse   map[int64]int32
	nodes    []tcNode // one per distinct block; int32 indexes reach 2^31 of them
	mru, lru int32    // ends of the resident list, noNode when empty
	resident int
}

// denseSlack is how far past twice the distinct count the dense block
// index may reach: room for a template that opens with scattered blocks
// (an FFT bit reversal, a stencil's far neighbours) before filling in.
const denseSlack = 4096

// minDense is the dense index's first size: the doublings below it
// would cost more allocations than its 256 bytes.
const minDense = 64

// tcNode is one distinct block's links in the resident list.
type tcNode struct {
	prev, next int32 // toward mru / toward lru; noNode at the ends
}

const (
	noNode   int32 = -1
	detached int32 = -2 // prev of a block that is not resident
)

// NewTemplateCounter creates a counter with the given capacity in blocks.
func NewTemplateCounter(capacityBlocks int) *TemplateCounter {
	return &TemplateCounter{
		capacity: capacityBlocks,
		mru:      noNode,
		lru:      noNode,
	}
}

// Visit feeds the next block of the template and reports whether it counted
// as a main-memory access (first touch or reuse beyond capacity).
func (tc *TemplateCounter) Visit(block int64) bool {
	tc.visits++
	var i int32
	// A block the dense index already holds, the common case, skips the
	// call to find.
	if uint64(block) < uint64(len(tc.dense)) && tc.dense[block] != 0 {
		i = tc.dense[block] - 1
	} else {
		i = tc.find(block)
	}
	// step 1 (first appearance) and step 2 (evicted, so its stack
	// distance reached capacity) are both "not resident".
	miss := tc.nodes[i].prev == detached
	tc.touch(i)
	if miss {
		tc.misses++
	}
	return miss
}

// VisitRun feeds blocks, as a group, times over: the same as calling
// Visit for every block of the group, pass after pass. Only the first
// pass is walked when the group fits, len(blocks) <= capacity. By the
// LRU stack property, the first pass leaves the group's distinct blocks
// at the top of the recency stack, ordered by their last visits. Each
// later pass therefore hits on every block and leaves that order, and so
// the whole state, as the first pass left it. Those passes are counted
// as visits, not walked.
func (tc *TemplateCounter) VisitRun(blocks []int64, times int) {
	if times < 1 {
		return
	}
	for _, b := range blocks {
		tc.Visit(b)
	}
	tc.revisit(blocks, times-1)
}

// revisit feeds blocks, the group just visited, times more over:
// VisitRun after its first pass.
func (tc *TemplateCounter) revisit(blocks []int64, times int) {
	if len(blocks) <= tc.capacity {
		tc.visits += int64(times) * int64(len(blocks))
		return
	}
	for ; times > 0; times-- {
		for _, b := range blocks {
			tc.Visit(b)
		}
	}
}

// find returns block's node, creating it on first sight.
func (tc *TemplateCounter) find(block int64) int32 {
	if uint64(block) < uint64(len(tc.dense)) || tc.growDense(block) {
		if i := tc.dense[block]; i != 0 {
			return i - 1
		}
		i := tc.newNode()
		tc.dense[block] = i + 1
		return i
	}
	if i, ok := tc.sparse[block]; ok {
		return i
	}
	i := tc.newNode()
	if tc.sparse == nil {
		tc.sparse = make(map[int64]int32)
	}
	tc.sparse[block] = i
	return i
}

// newNode appends a detached node, doubling the backing array when full:
// append's gentler growth for large slices would copy the nodes more often.
func (tc *TemplateCounter) newNode() int32 {
	if len(tc.nodes) == cap(tc.nodes) {
		grown := make([]tcNode, len(tc.nodes), max(2*cap(tc.nodes), 64))
		copy(grown, tc.nodes)
		tc.nodes = grown
	}
	tc.nodes = append(tc.nodes, tcNode{prev: detached, next: noNode})
	return int32(len(tc.nodes) - 1)
}

// growDense extends the dense index to cover block, if block is below
// the limit on what it takes in, moving the sparse entries it comes to
// cover. The index at least doubles, up to twice that limit, so blocks
// that run ahead of the distinct count still grow it geometrically.
func (tc *TemplateCounter) growDense(block int64) bool {
	limit := 2*int64(len(tc.nodes)) + denseSlack
	if block < 0 || block >= limit {
		return false
	}
	n := min(max(2*int64(len(tc.dense)), block+1, minDense), 2*limit)
	grown := make([]int32, n)
	copy(grown, tc.dense)
	for b, i := range tc.sparse {
		if b >= 0 && b < n {
			grown[b] = i + 1
			delete(tc.sparse, b)
		}
	}
	tc.dense = grown
	return true
}

// touch makes node i the most recently used resident block, evicting the
// least recently used one when that overfills the capacity. With no
// capacity at all, block i is evicted as it is loaded.
func (tc *TemplateCounter) touch(i int32) {
	if tc.capacity <= 0 {
		tc.evictions++
		return
	}
	n := &tc.nodes[i]
	switch {
	case tc.mru == i:
		return
	case n.prev == detached:
		tc.resident++
	default:
		tc.unlink(i)
	}
	n.prev, n.next = noNode, tc.mru
	if tc.mru != noNode {
		tc.nodes[tc.mru].prev = i
	}
	tc.mru = i
	if tc.lru == noNode {
		tc.lru = i
	}
	if tc.resident > tc.capacity {
		victim := tc.lru
		tc.unlink(victim)
		tc.nodes[victim].prev = detached
		tc.resident--
		tc.evictions++
	}
}

// unlink detaches resident node i from the list.
func (tc *TemplateCounter) unlink(i int32) {
	n := &tc.nodes[i]
	if n.prev != noNode {
		tc.nodes[n.prev].next = n.next
	} else {
		tc.mru = n.next
	}
	if n.next != noNode {
		tc.nodes[n.next].prev = n.prev
	} else {
		tc.lru = n.prev
	}
}

// stateLen returns the length of AppendState's encoding, half the
// resident list's length rounded up.
func (tc *TemplateCounter) stateLen() int {
	return (tc.resident + 1) / 2
}

// AppendState implements Periodic: it appends the resident list in
// recency order, MRU first, which is all that decides which later
// visits miss. A node stands for one block, so equal node orders are
// equal block orders. Each word packs two int32 nodes, the earlier one
// in the low half; a list of odd length ends in noNode, which no node
// equals.
func (tc *TemplateCounter) AppendState(dst []uint64) []uint64 {
	dst = slices.Grow(dst, tc.stateLen())
	for i := tc.mru; i != noNode; {
		var w uint64
		w, i = tc.pair(i)
		dst = append(dst, w)
	}
	return dst
}

// pair packs node i and the one after it in the resident list into one
// word, and returns the node after those two.
func (tc *TemplateCounter) pair(i int32) (uint64, int32) {
	j := tc.nodes[i].next
	if j == noNode {
		return uint64(uint32(i)) | 0xffffffff<<32, noNode // noNode's bits
	}
	return uint64(uint32(i)) | uint64(uint32(j))<<32, tc.nodes[j].next
}

// SameAs implements Periodic: it reports whether the resident list
// equals the one snap encodes.
func (tc *TemplateCounter) SameAs(snap []uint64) bool {
	if len(snap) != tc.stateLen() {
		return false
	}
	i := tc.mru
	for _, want := range snap {
		var w uint64
		if w, i = tc.pair(i); w != want {
			return false
		}
	}
	return true
}

// Evictions implements Periodic: the blocks that have left the resident
// list.
func (tc *TemplateCounter) Evictions() int64 { return tc.evictions }

// Stats returns the counter's tallies as cache counters: its visits as
// accesses, and its misses and evictions.
func (tc *TemplateCounter) Stats() cache.Stats {
	return cache.Stats{
		Accesses:  tc.visits,
		Hits:      tc.visits - tc.misses,
		Misses:    tc.misses,
		Evictions: tc.evictions,
	}
}

// Misses returns the accumulated estimate of main-memory accesses.
func (tc *TemplateCounter) Misses() int64 { return tc.misses }
