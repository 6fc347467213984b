package analytic

// timeline is the solver's reuse-distance state over segment slots (see
// solver.slots): every segment touched so far sits at the position of its
// latest touch, weighted by the lines that touch covered, and a touch's
// gap is the weight and count of the segments above it — the
// phase-granular stack distance the miss model consumes. It is the
// Bennett–Kruskal structure: one Fenwick tree of live weights and one of
// live segment counts over positions, O(log segments) per query.
//
// Grid and permutation phases go through begin/visit/repeat/commit
// instead of moving every touch on the global trees. Only each segment's
// latest touch, in recency order, affects later gaps, so a phase can
// answer its touches from two sources and publish the result once:
//
//   - a segment's first touch in the phase (an entry) sees the segments
//     above its old position that the phase has not entered yet, plus
//     every segment the phase has entered so far; it leaves the global
//     trees until commit;
//   - a later touch in the same phase (a reuse) sees only touches of this
//     phase, counted on a local Fenwick tree over the phase's touch
//     indices, built (in linear time) on the first reuse that needs it —
//     phases that touch every segment once never build it;
//   - commit pushes the entered segments back in the order of their
//     latest touch, which is the state the one-touch-at-a-time walk
//     would have left.
//
// With distances off (a conflict-free geometry, where every reuse hits)
// only first-ever touches matter and the trees are never built.
type timeline struct {
	distances bool

	// The phantom (see regrow): slot ghost is reserved for it; ghostAt is
	// its touch index while it belongs to the phase in flight.
	ev       int64 // touches so far, in the walk's counting
	nextGrow int64
	ghost    int32
	ghostAt  int32

	pos  []int32 // slot -> position of its latest touch; 0 = not on the trees
	seen []bool  // slot -> touched at least once

	at    []int32 // position -> slot
	w     []int64 // position -> live weight (0 = dead)
	tree  fenwick // live weights and counts by position
	n     int     // positions used
	liveW int64
	liveC int64

	// The phase in flight.
	gen     int32
	stamp   []int32 // slot -> gen of the last phase that touched it
	last    []int32 // slot -> index of its latest touch in the phase
	lastW   []int64 // slot -> weight of that touch
	entered []int32 // slots in entry order
	bw, bc  int64   // weight and count of the entered segments
	t       int32   // touches so far in the phase
	local   bool    // loc is up to date with the phase's touches
	loc     fenwick // live weights and counts by touch index
	order   []int32 // commit scratch: touch index -> slot+1
}

// newTimeline sizes a timeline for slots segments and phases of at most
// touches touches; it never allocates again.
func newTimeline(slots, touches int, distances bool) *timeline {
	t := &timeline{
		distances: distances,
		seen:      make([]bool, slots),
		nextGrow:  firstRegrowth,
		ghost:     int32(slots),
	}
	if !distances {
		return t
	}
	// Live segments never exceed slots+1 (the phantom), so positions for
	// twice that leave room for at least as many dead ones between
	// compactions.
	s, p, k := slots+1, 2*slots+5, touches+1
	i32 := make([]int32, 3*s+p+k+s)
	t.pos, i32 = i32[:s:s], i32[s:]
	t.stamp, i32 = i32[:s:s], i32[s:]
	t.last, i32 = i32[:s:s], i32[s:]
	t.at, i32 = i32[:p:p], i32[p:]
	t.order, i32 = i32[:k:k], i32[k:]
	t.entered = i32[:0:s]
	i64 := make([]int64, s+p)
	t.lastW, t.w = i64[:s:s], i64[s:]
	fen := make(fenwick, p+k)
	t.tree, t.loc = fen[:p:p], fen[p:]
	return t
}

// firstRegrowth is the touch count at which the per-touch timeline the
// solver's figures were pinned with first regrew its trees; it regrew at
// every doubling after that.
const firstRegrowth = 1025

// regrow reproduces an artifact of that per-touch timeline, which the
// golden analytic profiles encode: each regrowth re-inserted the touch
// that triggered it and then inserted it again, so the segment touched
// at the 1025th, 2050th, 4100th, ... touch weighed double at that
// position until the next regrowth rebuilt the trees. That is a phantom
// segment of the touch's weight sitting just below it, alive until the
// next regrowth: every gap that spans it counts it, the touched
// segment's own next gap does not. regrow retires the previous phantom
// and plants the new one under slot, which was just touched (at touch
// index t.t of the phase in flight when inPhase).
func (t *timeline) regrow(slot int32, weight int64, inPhase bool) {
	t.nextGrow *= 2
	g := t.ghost
	if p := t.pos[g]; p > 0 {
		t.kill(int(p))
	} else if t.stamp[g] == t.gen && t.ghostAt > 0 {
		if t.local {
			t.loc.add(int(t.ghostAt), -t.lastW[g], -1)
		}
		t.bw -= t.lastW[g]
		t.bc--
		t.stamp[g] = 0
		t.ghostAt = 0
	}
	if !inPhase {
		p := int(t.pos[slot])
		w := t.w[p]
		t.kill(p)
		t.push(g, weight)
		t.push(slot, w)
		return
	}
	t.stamp[g], t.last[g], t.lastW[g] = t.gen, t.t, weight
	t.ghostAt = t.t
	t.bw += weight
	t.bc++
	if t.local {
		t.loc.add(int(t.t), weight, 1)
	}
}

// tick counts one touch of the walk and plants a phantom when it is a
// regrowth.
func (t *timeline) tick(slot int32, weight int64, inPhase bool) {
	t.ev++
	if t.ev == t.nextGrow {
		t.regrow(slot, weight, inPhase)
	}
}

// growsWithin reports whether one of the next k touches is a regrowth.
func (t *timeline) growsWithin(k int) bool {
	return t.distances && t.ev+int64(k) >= t.nextGrow
}

// skip counts k touches the caller charges without the timeline (their
// recency order is unchanged and growsWithin(k) was false).
func (t *timeline) skip(k int) { t.ev += int64(k) }

// ghostSince reports whether a live phantom of the phase in flight sits
// at touch index from or later.
func (t *timeline) ghostSince(from int32) bool {
	return t.ghostAt > 0 && t.ghostAt >= from
}

// touch is a one-touch phase: it returns the segment's gap since its
// previous touch and moves it to the top. first is true on the
// segment's first-ever touch (compulsory territory; the gap is then
// meaningless and zero).
func (t *timeline) touch(slot int32, weight int64) (dist, events int64, first bool) {
	if !t.seen[slot] {
		t.seen[slot] = true
		first = true
	}
	if !t.distances {
		return 0, 0, first
	}
	if p := int(t.pos[slot]); p > 0 {
		dist, events = t.above(p)
		t.kill(p)
	}
	t.push(slot, weight)
	t.tick(slot, weight, false)
	return dist, events, first
}

// begin opens a phase of at most touches touches. A phase that expects
// reuses (reuses) keeps its local tree from the first touch; others
// build it only if a reuse comes.
func (t *timeline) begin(touches int, reuses bool) {
	if !t.distances {
		return
	}
	t.gen++
	t.entered = t.entered[:0]
	t.bw, t.bc, t.t = 0, 0, 0
	t.ghostAt = 0
	t.loc, t.order = t.loc[:touches+1], t.order[:touches+1]
	t.local = reuses
	if reuses {
		clear(t.loc)
	}
}

// reused reports whether the phase in flight already touched slot.
func (t *timeline) reused(slot int32) bool {
	return t.distances && t.stamp[slot] == t.gen
}

// visit records one touch of the phase in flight and returns its gap,
// exactly what touch would have returned at this point of the walk.
func (t *timeline) visit(slot int32, weight int64) (dist, events int64, first bool) {
	if !t.distances {
		if !t.seen[slot] {
			t.seen[slot] = true
			return 0, 0, true
		}
		return 0, 0, false
	}
	t.t++
	i := int(t.t)
	if t.stamp[slot] != t.gen {
		t.stamp[slot] = t.gen
		if !t.seen[slot] {
			t.seen[slot] = true
			first = true
		} else if p := int(t.pos[slot]); p > 0 {
			dist, events = t.above(p)
			dist += t.bw
			events += t.bc
			t.kill(p)
		}
		t.bw += weight
		t.bc++
		t.entered = append(t.entered, slot)
	} else {
		if !t.local {
			t.buildLocal()
		}
		p := int(t.last[slot])
		dist, events = t.loc.between(p, i-1)
		t.loc.add(p, -t.lastW[slot], -1)
		t.bw += weight - t.lastW[slot]
	}
	if t.local {
		t.loc.add(i, weight, 1)
	}
	t.last[slot] = int32(i)
	t.lastW[slot] = weight
	t.tick(slot, weight, true)
	return dist, events, first
}

// repeat records a reuse whose gap the caller already knows (a
// translate of one it measured earlier in the phase); the local tree is
// rebuilt from the latest touches if a later reuse needs it.
func (t *timeline) repeat(slot int32, weight int64) {
	if !t.distances {
		return
	}
	t.t++
	t.local = false
	t.bw += weight - t.lastW[slot]
	t.last[slot] = t.t
	t.lastW[slot] = weight
	t.tick(slot, weight, true)
}

// buildLocal rebuilds the local tree from each entered segment's latest
// touch (and the phase's phantom), in linear time.
func (t *timeline) buildLocal() {
	clear(t.loc)
	for _, s := range t.entered {
		if s != t.ghost {
			t.loc[t.last[s]] = fenNode{t.lastW[s], 1}
		}
	}
	if t.ghostAt > 0 {
		t.loc[t.ghostAt].w += t.lastW[t.ghost]
		t.loc[t.ghostAt].c++
	}
	t.loc.build()
	t.local = true
}

// commit closes the phase: the entered segments go back on the global
// trees in the order of their latest touch. A large batch is laid out
// first and the trees rebuilt once, in linear time.
func (t *timeline) commit() {
	if !t.distances {
		return
	}
	for _, s := range t.entered {
		if s != t.ghost {
			t.order[t.last[s]] = s + 1
		}
	}
	bulk := 8*len(t.entered) > t.n
	if bulk {
		// Compact first: the batch then lands right after the live
		// segments and one rebuild covers both.
		t.compact()
	}
	put := func(slot int32, w int64) {
		if !bulk {
			t.push(slot, w)
			return
		}
		t.n++
		t.at[t.n], t.w[t.n] = slot, w
		t.liveW += w
		t.liveC++
		t.pos[slot] = int32(t.n)
	}
	for i := int32(1); i <= t.t; i++ {
		if i == t.ghostAt {
			put(t.ghost, t.lastW[t.ghost])
		}
		if s := t.order[i]; s != 0 {
			t.order[i] = 0
			put(s-1, t.lastW[s-1])
		}
	}
	if bulk {
		t.rebuild()
	}
	t.ghostAt = 0
}

// above returns the live weight and count above position p.
func (t *timeline) above(p int) (int64, int64) {
	w, c := t.tree.sum(p)
	return t.liveW - w, t.liveC - c
}

func (t *timeline) kill(p int) {
	w := t.w[p]
	t.tree.add(p, -w, -1)
	t.liveW -= w
	t.liveC--
	t.w[p] = 0
	t.pos[t.at[p]] = 0
}

func (t *timeline) push(slot int32, weight int64) {
	if t.n+1 >= len(t.tree) {
		t.compact()
	}
	t.n++
	t.at[t.n], t.w[t.n] = slot, weight
	t.tree.add(t.n, weight, 1)
	t.liveW += weight
	t.liveC++
	t.pos[slot] = int32(t.n)
}

// compact moves the live positions to the front, in order, and rebuilds
// the trees.
func (t *timeline) compact() {
	n := 0
	for p := 1; p <= t.n; p++ {
		if t.w[p] != 0 {
			n++
			t.at[n], t.w[n] = t.at[p], t.w[p]
			t.pos[t.at[n]] = int32(n)
		}
	}
	clear(t.w[n+1:])
	t.n = n
	t.rebuild()
}

// rebuild recomputes the trees from the live weights, in linear time.
func (t *timeline) rebuild() {
	for p := range t.tree {
		t.tree[p] = fenNode{}
		if p > 0 && t.w[p] != 0 {
			t.tree[p] = fenNode{t.w[p], 1}
		}
	}
	t.tree.build()
}

// fenwick is a Fenwick tree over positions 1..len-1 holding a weight and
// a count per position.
type fenwick []fenNode

type fenNode struct{ w, c int64 }

// build turns raw values into the tree in place, in linear time.
func (f fenwick) build() {
	for p := 1; p < len(f); p++ {
		if q := p + p&-p; q < len(f) {
			f[q].w += f[p].w
			f[q].c += f[p].c
		}
	}
}

func (f fenwick) add(p int, w, c int64) {
	for ; p < len(f); p += p & -p {
		f[p].w += w
		f[p].c += c
	}
}

// sum returns the totals over positions [1, p].
func (f fenwick) sum(p int) (w, c int64) {
	for ; p > 0; p -= p & -p {
		w += f[p].w
		c += f[p].c
	}
	return w, c
}

// between returns the totals over positions (lo, hi]: both prefix walks
// at once, stopping where they meet.
func (f fenwick) between(lo, hi int) (w, c int64) {
	for hi != lo {
		if hi > lo {
			w += f[hi].w
			c += f[hi].c
			hi -= hi & -hi
		} else {
			w -= f[lo].w
			c -= f[lo].c
			lo -= lo & -lo
		}
	}
	return w, c
}
