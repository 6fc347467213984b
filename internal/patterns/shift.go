package patterns

// BlockShift moves the blocks in [Lo, Hi) by Delta blocks.
type BlockShift struct{ Lo, Hi, Delta int64 }

// BlockCounter is a stack-distance TemplateCounter for templates over
// the blocks 0, ..., blocks-1, with a node for each made up front: node
// b is block b. That lets RunShifted move blocks. DistinctBlocks counts
// those nodes too.
type BlockCounter struct {
	TemplateCounter
	blocks int
	snap   []int32 // RunShifted's copy of a resident list
}

// NewBlockCounter returns a BlockCounter of capacityBlocks for the
// blocks 0, ..., blocks-1.
func NewBlockCounter(capacityBlocks, blocks int) *BlockCounter {
	bc := &BlockCounter{TemplateCounter: *NewTemplateCounter(capacityBlocks, false), blocks: blocks}
	bc.nodes = make([]tcNode, blocks)
	bc.dense = make([]int32, blocks)
	for b := range bc.nodes {
		bc.nodes[b] = tcNode{prev: detached, next: noNode}
		bc.dense[b] = int32(b) + 1
	}
	return bc
}

// RunShifted runs plane(0), ..., plane(planes-1), a loop whose plane
// i+1 visits the blocks plane i visits, in the same order, each moved
// by the shift whose range holds it; blocks outside every range stay.
// The ranges must not overlap, and a plane's blocks must stay in their
// range.
//
// Call τ that move. LRU does not depend on the names of the blocks, so
// when the resident list after plane i is τ of the list after plane
// i-1, every later plane repeats plane i by τ: it changes the visits,
// misses and evictions by what plane i did, and leaves τ of the list
// it found. RunShifted then counts the remaining planes and moves the
// resident blocks by the total shift instead of running them. That
// holds only while τ moves no resident block out of its range, which
// it checks too.
//
// Comparing the lists costs a copy of the resident list, so one is
// taken only after a plane that could start the repeat: it evicted, as
// the one before did, the same number of blocks and missed as often
// (a plane that evicts nothing leaves the same blocks resident, which
// no move maps onto themselves), and its list has the previous list's
// length and moved LRU end. After a failed comparison the next copy
// waits twice as long as the last wait. With a shift outside the
// numbered blocks, every plane runs.
func (tc *BlockCounter) RunShifted(planes int, shifts []BlockShift, plane func(i int)) {
	numbered := true
	for _, sh := range shifts {
		numbered = numbered && sh.Lo >= 0 && sh.Hi <= int64(tc.blocks)
	}
	if !numbered {
		for i := range planes {
			plane(i)
		}
		return
	}
	var (
		prevLen     = -1
		prevLRU     int32
		prev, delta [3]int64 // visits, misses and evictions after the last plane, and what it added
		snapped     bool     // tc.snap holds the list after the last plane
		wait, waits = 0, 1   // planes before the next copy, and the next wait
	)
	for i := range planes {
		plane(i)
		left := int64(planes - 1 - i)
		if left == 0 {
			return
		}
		cur := [3]int64{tc.visits, tc.misses, tc.evictions}
		if snapped {
			snapped = false
			if tc.sameShifted(shifts, left+1) {
				tc.visits += left * (cur[0] - prev[0])
				tc.misses += left * (cur[1] - prev[1])
				tc.evictions += left * (cur[2] - prev[2])
				tc.moveResident(shifts, left)
				return
			}
			wait, waits = waits, 2*waits
		}
		d := [3]int64{cur[0] - prev[0], cur[1] - prev[1], cur[2] - prev[2]}
		if wait > 0 {
			wait--
		} else if d[2] > 0 && d == delta && tc.resident == prevLen && int64(tc.lru) == shifted(shifts, int64(prevLRU), 1) {
			tc.snap = tc.appendResident(tc.snap[:0])
			snapped = true
		}
		prevLen, prevLRU, prev, delta = tc.resident, tc.lru, cur, d
	}
}

// shifted returns block b moved times over by the shift whose range
// holds it, or -1 when that leaves the range.
func shifted(shifts []BlockShift, b, times int64) int64 {
	for _, sh := range shifts {
		if b >= sh.Lo && b < sh.Hi {
			if to := b + times*sh.Delta; to >= sh.Lo && to < sh.Hi {
				return to
			}
			return -1
		}
	}
	return b
}

// appendResident appends the resident blocks to dst, MRU first.
func (tc *BlockCounter) appendResident(dst []int32) []int32 {
	for i := tc.mru; i != noNode; i = tc.nodes[i].next {
		dst = append(dst, i)
	}
	return dst
}

// sameShifted reports whether the resident list is tc.snap moved once,
// and whether every block of tc.snap stays in its range when moved
// reach times. It compares from the LRU end, where a list that does not
// repeat keeps the blocks of earlier phases.
func (tc *BlockCounter) sameShifted(shifts []BlockShift, reach int64) bool {
	if len(tc.snap) != tc.resident {
		return false
	}
	i := tc.lru
	for k := len(tc.snap) - 1; k >= 0; k-- {
		b := int64(tc.snap[k])
		if int64(i) != shifted(shifts, b, 1) || shifted(shifts, b, reach) < 0 {
			return false
		}
		i = tc.nodes[i].prev
	}
	return true
}

// moveResident moves every resident block times over by its shift,
// keeping the recency order. The blocks are numbered nodes, so a moved
// block's node is the block itself.
func (tc *BlockCounter) moveResident(shifts []BlockShift, times int64) {
	tc.snap = tc.appendResident(tc.snap[:0])
	for _, i := range tc.snap {
		tc.nodes[i].prev = detached
	}
	last := noNode
	for _, b := range tc.snap {
		i := int32(shifted(shifts, int64(b), times))
		tc.nodes[i] = tcNode{prev: last, next: noNode}
		if last == noNode {
			tc.mru = i
		} else {
			tc.nodes[last].next = i
		}
		last = i
	}
	tc.lru = last
}
