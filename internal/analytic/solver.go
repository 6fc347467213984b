package analytic

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/resilience-models/dvf/internal/cache"
)

// StructMisses is the solved result for one region: the number of
// main-memory accesses (cache miss line fills) the analytic model
// predicts the region induces on the solved geometry.
type StructMisses struct {
	Name   string
	Lines  int64   // compulsory line footprint on this geometry
	Misses float64 // predicted misses (fractional: set-mapping averages)
}

// Profile is the trace-free analog of replaying a kernel's trace through
// the cache simulator: per-structure main-memory access counts for one
// cache geometry. Misses here play the role of Stats.Misses — the N_ha
// the DVF aggregation consumes.
type Profile struct {
	Kernel     string
	Cache      string
	Structures []StructMisses
}

// Misses returns the predicted miss count for the named structure.
func (p *Profile) Misses(name string) (float64, error) {
	for _, s := range p.Structures {
		if s.Name == name {
			return s.Misses, nil
		}
	}
	return 0, fmt.Errorf("analytic: %s profile has no structure %q", p.Kernel, name)
}

// TotalMisses returns the sum over all structures.
func (p *Profile) TotalMisses() float64 {
	var t float64
	for _, s := range p.Structures {
		t += s.Misses
	}
	return t
}

// Solve runs the descriptor's phase program against one cache geometry
// and returns the predicted per-structure miss counts. It never touches a
// trace, and its cost does not grow with the number of memory
// references: streams, mat-vecs and the middle and last butterfly passes
// cost one miss-fraction evaluation each; grid phases and the FFT
// passes cost one O(log segments) timeline query per row or line they
// enter; the smoother's repeated rows from its third stripe on are
// charged from gaps measured in an earlier stripe, while the
// bit-reversal and the smoother's first two stripes are counted per
// touch. Each distinct gap is evaluated once. On a conflict-free
// geometry no gap is measured and phases over already-touched rows or
// lines are skipped.
func Solve(d *Descriptor, cfg cache.Config) (*Profile, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &solver{
		d:    d,
		cfg:  cfg,
		miss: make([]float64, len(d.Regions)),
	}
	s.fams = s.famBuf[:0]
	// Conflict-free geometries are exact by construction: when nothing can
	// ever be evicted, every reuse hits and only compulsory misses remain —
	// whereas the window model would leak a small spurious fraction. Two
	// sufficient conditions, both independent of the regions' (unknown)
	// base alignment:
	//
	//   - a single contiguous region of at most Sets lines puts every line
	//     in its own set;
	//   - whatever the alignment, a region of L lines can place at most
	//     floor(L/Sets)+1 lines in any one set, so when those worst cases
	//     summed over all regions still fit within the associativity,
	//     eviction is impossible.
	if len(d.Regions) == 1 && regionLines(d.Regions[0], cfg.LineSize) <= int64(cfg.Sets) {
		s.conflictFree = true
	}
	worstPerSet := int64(0)
	for _, r := range d.Regions {
		worstPerSet += regionLines(r, cfg.LineSize)/int64(cfg.Sets) + 1
	}
	if worstPerSet <= int64(cfg.Associativity) {
		s.conflictFree = true
	}
	slots, err := s.slots()
	if err != nil {
		return nil, err
	}
	s.tl = newTimeline(slots, s.maxTouches, !s.conflictFree)
	s.phases(d.Phases)
	prof := &Profile{Kernel: d.Kernel, Cache: cfg.Name, Structures: make([]StructMisses, len(d.Regions))}
	for i, r := range d.Regions {
		prof.Structures[i] = StructMisses{
			Name:   r.Name,
			Lines:  regionLines(r, cfg.LineSize),
			Misses: s.miss[i],
		}
	}
	return prof, nil
}

type solver struct {
	d            *Descriptor
	cfg          cache.Config
	tl           *timeline
	fams         []family
	famBuf       [8]family
	maxTouches   int // touches of the largest grid or permutation phase
	miss         []float64
	conflictFree bool
	fracs        []fracMemo // direct-mapped missFracGap results
	stripe       []float64  // smooth: a measured stripe's charges
}

// A segment is one (region, sub-key) pair the timeline tracks: sub-key 0
// is the whole region (streams, mat-vecs), 1+elemStart a grid row and
// 1+lineIndex an FFT line. A family is the arithmetic run of segments one
// phase kind walks — a grid level's rows or a region's lines — and
// slots[k] is the dense timeline slot of its k-th segment.
type family struct {
	ri           int
	sub0, stride int64
	count        int
	slots        []int32
	seen         bool // every segment has been touched (monotone)
}

// slots collects the program's segment families and gives every distinct
// segment a dense slot, returning the slot count. Families of one region
// whose sub-key ranges overlap may share segments, so then every slot is
// assigned through a key map; otherwise each family gets a consecutive
// run. The timeline indexes segments, positions and touches with int32,
// so a program too large for that fails here, before anything is sized
// by it.
func (s *solver) slots() (int, error) {
	s.collect(s.d.Phases)
	total, overlap := 0, false
	for i, f := range s.fams {
		total += f.count
		for _, g := range s.fams[:i] {
			if f.ri == g.ri && f.sub0 <= g.last() && g.sub0 <= f.last() {
				overlap = true
			}
		}
	}
	if total > math.MaxInt32/4 || s.maxTouches > math.MaxInt32/2 {
		return 0, fmt.Errorf("analytic: %s: %d segments or a phase of %d touches is too large to solve",
			s.d.Kernel, total, s.maxTouches)
	}
	all := make([]int32, total)
	var ids map[int64]int32
	if overlap {
		ids = make(map[int64]int32, total)
	}
	n := int32(0)
	for i := range s.fams {
		f := &s.fams[i]
		f.slots, all = all[:f.count:f.count], all[f.count:]
		for k := range f.slots {
			if ids == nil {
				f.slots[k] = n
				n++
				continue
			}
			key := int64(f.ri)<<40 | (f.sub0 + int64(k)*f.stride)
			id, ok := ids[key]
			if !ok {
				id = n
				ids[key] = id
				n++
			}
			f.slots[k] = id
		}
	}
	return int(n), nil
}

func (f *family) last() int64 { return f.sub0 + int64(f.count-1)*f.stride }

// collect registers the families every phase of ps walks.
func (s *solver) collect(ps []Phase) {
	for _, p := range ps {
		s.maxTouches = max(s.maxTouches, s.touches(p))
		switch p := p.(type) {
		case Stream:
			for _, t := range p.Streams {
				s.whole(s.index(t.Region))
			}
		case MatVec:
			s.whole(s.index(p.Vec))
			s.whole(s.index(p.Matrix))
			s.whole(s.index(p.Out))
		case Smooth:
			s.grid(s.index(p.Region), p.OffsetElems, p.Dim)
		case Restrict:
			ri := s.index(p.Region)
			s.grid(ri, p.FineOffset, p.FineDim)
			s.grid(ri, p.CoarseOffs, p.CoarseDim)
		case Prolong:
			ri := s.index(p.Region)
			s.grid(ri, p.FineOffset, p.FineDim)
			s.grid(ri, p.CoarseOffs, p.CoarseDim)
		case BitReverse:
			ri := s.index(p.Region)
			s.lines(ri, s.bitReverseLines(p, s.d.Regions[ri]))
		case Butterflies:
			ri := s.index(p.Region)
			s.lines(ri, distinctLines(p.N, 1, s.d.Regions[ri].ElemSize, s.cfg.LineSize))
		case Repeat:
			s.collect(p.Body)
		}
	}
}

// touches bounds the touches one grid or permutation phase makes (0 for
// the others): the size of its local tree.
func (s *solver) touches(p Phase) int {
	switch p := p.(type) {
	case Smooth:
		return 5 * max(p.Dim-2, 0) * max(p.Dim-2, 0)
	case Restrict:
		return 5 * p.CoarseDim * p.CoarseDim
	case Prolong:
		return 5 * p.CoarseDim * p.CoarseDim
	case BitReverse:
		// Each element is visited at most once and spans at most
		// (es-1)/ls + 2 lines.
		return p.N * ((s.d.Regions[s.index(p.Region)].ElemSize-1)/s.cfg.LineSize + 2)
	case Butterflies:
		return int(distinctLines(p.N, 1, s.d.Regions[s.index(p.Region)].ElemSize, s.cfg.LineSize))
	}
	return 0
}

// family returns the registered family, registering it on first sight.
func (s *solver) family(ri int, sub0, stride int64, count int) *family {
	for i := range s.fams {
		if f := &s.fams[i]; f.ri == ri && f.sub0 == sub0 && f.stride == stride && f.count == count {
			return f
		}
	}
	s.fams = append(s.fams, family{ri: ri, sub0: sub0, stride: stride, count: count})
	return &s.fams[len(s.fams)-1]
}

// whole, grid and lines are the three family shapes: a whole region, the
// dim*dim rows of a grid level at offset, the first count lines.
func (s *solver) whole(ri int) *family { return s.family(ri, 0, 0, 1) }

func (s *solver) grid(ri, offset, dim int) *family {
	return s.family(ri, 1+int64(offset), int64(dim), dim*dim)
}

func (s *solver) lines(ri int, count int64) *family { return s.family(ri, 1, 1, int(count)) }

// settled reports whether a grid or permutation phase over these
// families can be skipped: on a conflict-free geometry every touch but a
// segment's first charges exactly nothing and no gap is measured, so
// once every segment the phase walks has been touched the whole phase
// adds zero.
func (s *solver) settled(fs ...*family) bool {
	if !s.conflictFree {
		return false
	}
	for _, f := range fs {
		if f.seen {
			continue
		}
		for _, slot := range f.slots {
			if !s.tl.seen[slot] {
				return false
			}
		}
		f.seen = true
	}
	return true
}

// bitReverseLines is the number of lines the permutation of N elements
// spans from the region base.
func (s *solver) bitReverseLines(p BitReverse, r Region) int64 {
	return (int64(p.N)*int64(r.ElemSize)-1)/int64(s.cfg.LineSize) + 1
}

func (s *solver) index(name string) int {
	for i, r := range s.d.Regions {
		if r.Name == name {
			return i
		}
	}
	return -1 // unreachable: Validate checked every region reference
}

func (s *solver) region(name string) (int, Region) {
	ri := s.index(name)
	return ri, s.d.Regions[ri]
}

// gapClass is the input of one missFracGap evaluation; own >= 1, so the
// zero class marks an empty memo entry.
type gapClass struct{ lines, events, own int64 }

type fracMemo struct {
	k gapClass
	f float64
}

// frac is the miss fraction of a gap of lines lines in events segments
// for a segment of own lines: zero on a conflict-free geometry (see
// Solve), otherwise missFracGap. Repeated gap classes (a phase's uniform
// reuses) come from a small direct-mapped memo sized by the segment
// count.
func (s *solver) frac(lines, events, own int64) float64 {
	if s.conflictFree {
		return 0
	}
	if s.fracs == nil {
		n := 16
		for n < len(s.tl.seen) && n < 512 {
			n *= 2
		}
		s.fracs = make([]fracMemo, n)
	}
	k := gapClass{lines, events, own}
	m := &s.fracs[uint64(lines*0x9e3779b1+events*0x85ebca6b+own)%uint64(len(s.fracs))]
	if m.k != k {
		m.k, m.f = k, missFracGap(lines, events, own, s.cfg)
	}
	return m.f
}

func (s *solver) fracParts(parts []segPart, ownLines int64) float64 {
	if s.conflictFree {
		return 0
	}
	return missFracParts(parts, ownLines, s.cfg)
}

func (s *solver) phases(ps []Phase) {
	for _, p := range ps {
		switch p := p.(type) {
		case Stream:
			s.stream(p)
		case MatVec:
			s.matVec(p)
		case Smooth:
			s.smooth(p)
		case Restrict:
			s.restrict(p)
		case Prolong:
			s.prolong(p)
		case BitReverse:
			s.bitReverse(p)
		case Butterflies:
			s.butterflies(p)
		case Repeat:
			for i := 0; i < p.Count; i++ {
				s.phases(p.Body)
			}
		}
	}
}

// charge adds one touch's misses and returns them: every line of the
// segment on its first-ever touch (compulsory), otherwise the
// set-pressure fraction of its gap — the gap's distinct lines split over
// its segment events, with the segment's own footprint as the
// self-interference term (a line's true gap also spans the other lines
// of its own segment: the tail of the previous traversal plus the head
// of the current one).
func (s *solver) charge(ri int, lines, dist, events int64, first bool) float64 {
	c := float64(lines)
	if !first {
		c *= s.frac(dist, events, lines)
	}
	s.miss[ri] += c
	return c
}

// touch is a whole-region traversal: a one-touch phase.
func (s *solver) touch(ri int, lines int64) {
	if lines <= 0 {
		return
	}
	d, e, first := s.tl.touch(s.whole(ri).slots[0], lines)
	s.charge(ri, lines, d, e, first)
}

// visit is one touch of the grid or permutation phase in flight. On a
// conflict-free geometry only a segment's first touch charges anything.
func (s *solver) visit(ri int, slot int32, lines int64) float64 {
	d, e, first := s.tl.visit(slot, lines)
	if s.conflictFree && !first {
		return 0
	}
	return s.charge(ri, lines, d, e, first)
}

func (s *solver) stream(p Stream) {
	// Lockstep traversals: one whole-segment touch per distinct region, in
	// the body's first-access order. A second traversal of the same region
	// inside the phase (a load/store pair) rides on the first for free.
next:
	for i, t := range p.Streams {
		for _, u := range p.Streams[:i] {
			if u.Region == t.Region {
				continue next
			}
		}
		ri, r := s.region(t.Region)
		s.touch(ri, distinctLines(t.Count, t.StrideElems, r.ElemSize, s.cfg.LineSize))
	}
}

func (s *solver) matVec(p MatVec) {
	vi, vr := s.region(p.Vec)
	mi, mr := s.region(p.Matrix)
	oi, or := s.region(p.Out)
	ls := s.cfg.LineSize
	vecLines := distinctLines(p.N, 1, vr.ElemSize, ls)
	rowLines := distinctLines(p.N, 1, mr.ElemSize, ls)
	outLines := distinctLines(p.N, 1, or.ElemSize, ls)
	// The vector's first inner traversal reuses whatever the previous
	// phase left (it interleaves with only the first matrix row), so it is
	// charged before the matrix event lands on the timeline.
	s.touch(vi, vecLines)
	s.touch(mi, regionLines(mr, ls))
	s.touch(oi, outLines)
	// Remaining N-1 inner traversals, all at the same uniform gap: one
	// streamed matrix row plus one output line, against the vector's own
	// footprint as self-interference.
	inner := s.fracParts([]segPart{{lines: rowLines, count: 1}, {lines: 1, count: 1}}, vecLines)
	s.miss[vi] += float64(p.N-1) * float64(vecLines) * inner
	// The phase's true trailing accesses are the last matrix row, the
	// vector's last traversal, and the output's last store — not the
	// whole matrix. Reposition the vector and output events (already
	// charged above) so the next phase's gaps see that recency order.
	s.tl.touch(s.whole(vi).slots[0], vecLines)
	s.tl.touch(s.whole(oi).slots[0], outLines)
}

// smooth walks the Algorithm 3 stencil over the interior cells (i, j),
// touching rows (i,j-1), (i,j+1), (i-1,j), (i+1,j), (i,j), each a segment
// of the level's row length. Every reuse inside the sweep reaches back at
// most one stripe (its previous touch is in stripe i-1 or i), and all
// rows weigh the same, so in every stripe from the second on each
// reuse's gap is the translate by whole stripes of the same touch's gap
// in any other such stripe. One measured stripe therefore prices the
// reuses of all later ones without a timeline query; only the rows the
// sweep enters (the down neighbors, the two edge columns, and in the
// first stripe everything) are measured. A stripe whose gaps could span
// a phantom (see timeline.regrow) is measured in full instead.
func (s *solver) smooth(p Smooth) {
	ri, r := s.region(p.Region)
	n, m := p.Dim, p.Dim-2
	if m <= 0 {
		return
	}
	lines := distinctLines(n, 1, r.ElemSize, s.cfg.LineSize)
	level := s.grid(ri, p.OffsetElems, n)
	if s.settled(level) {
		return
	}
	rows := level.slots
	if cap(s.stripe) < 5*m {
		s.stripe = make([]float64, 5*m)
	}
	stripe := s.stripe[:5*m]
	priced := false // stripe holds a measured stripe's charges
	s.tl.begin(s.touches(p), true)
	for i := 1; i <= m; i++ {
		// Touch indices of stripe i start at 5m(i-1)+1; its gaps reach
		// back into stripe i-1.
		clean := !s.tl.growsWithin(5*m) && !s.tl.ghostSince(int32(5*m*(i-2)+1))
		translate := priced && clean
		record := i >= 2 && clean && !translate
		for j := 1; j <= m; j++ {
			c := i*n + j
			for o, k := range [5]int{c - 1, c + 1, c - n, c + n, c} {
				slot, x := rows[k], 5*(j-1)+o
				if translate && s.tl.reused(slot) {
					s.tl.repeat(slot, lines)
					s.miss[ri] += stripe[x]
					continue
				}
				v := s.visit(ri, slot, lines)
				if record {
					stripe[x] = v
				}
			}
		}
		priced = priced || record
	}
	s.tl.commit()
}

// restrict and prolong touch every fine and coarse row once per coarse
// cell, so (short of overlapping levels) every touch enters the phase.
func (s *solver) restrict(p Restrict) {
	ri, r := s.region(p.Region)
	nf, nc := p.FineDim, p.CoarseDim
	fl, cl := s.grid(ri, p.FineOffset, nf), s.grid(ri, p.CoarseOffs, nc)
	if s.settled(fl, cl) {
		return
	}
	fine, coarse := fl.slots, cl.slots
	lf := distinctLines(nf, 1, r.ElemSize, s.cfg.LineSize)
	lc := distinctLines(nc, 1, r.ElemSize, s.cfg.LineSize)
	s.tl.begin(s.touches(p), false)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			for di := 0; di < 2; di++ {
				for dj := 0; dj < 2; dj++ {
					s.visit(ri, fine[(2*i+di)*nf+2*j+dj], lf)
				}
			}
			s.visit(ri, coarse[i*nc+j], lc)
		}
	}
	s.tl.commit()
}

func (s *solver) prolong(p Prolong) {
	ri, r := s.region(p.Region)
	nf, nc := p.FineDim, p.CoarseDim
	fl, cl := s.grid(ri, p.FineOffset, nf), s.grid(ri, p.CoarseOffs, nc)
	if s.settled(fl, cl) {
		return
	}
	fine, coarse := fl.slots, cl.slots
	lf := distinctLines(nf, 1, r.ElemSize, s.cfg.LineSize)
	lc := distinctLines(nc, 1, r.ElemSize, s.cfg.LineSize)
	s.tl.begin(s.touches(p), false)
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			s.visit(ri, coarse[i*nc+j], lc)
			for di := 0; di < 2; di++ {
				for dj := 0; dj < 2; dj++ {
					s.visit(ri, fine[(2*i+di)*nf+2*j+dj], lf)
				}
			}
		}
	}
	s.tl.commit()
}

// bitReverse visits, for every pair i < j = rev(i), the lines of
// elements i and j. The swap's load/store pairs re-touch the same lines
// back to back; one visit per element carries the whole swap's miss
// behaviour. The visit order is a bit-reversed shuffle, not a stream, so
// every line touch is counted — entries against the timeline, reuses on
// the phase's local tree.
func (s *solver) bitReverse(p BitReverse) {
	ri, r := s.region(p.Region)
	es := int64(r.ElemSize)
	shift := bits.TrailingZeros(uint(s.cfg.LineSize)) // line sizes are powers of two
	fam := s.lines(ri, s.bitReverseLines(p, r))
	if s.settled(fam) {
		return
	}
	lines := fam.slots
	logN := bits.TrailingZeros(uint(p.N))
	visit := func(e int64) {
		for b := e * es >> shift; b <= (e*es+es-1)>>shift; b++ {
			s.visit(ri, lines[b], 1)
		}
	}
	s.tl.begin(s.touches(p), true)
	for i := 0; i < p.N; i++ {
		j := int(bits.Reverse32(uint32(i)) >> (32 - logN))
		if i < j {
			visit(int64(i))
			visit(int64(j))
		}
	}
	s.tl.commit()
}

// butterflies charges the log2(N) passes, each one traversal of the
// array touching every line once. The first pass enters every line
// against what the bit-reversal left. In every later pass a line's gap
// is exactly the array's other lines: the middle passes are charged
// from the segment model's pure self-interference term, the last one
// from the timeline gap (lines-1 lines in lines-1 events) it would
// measure. That last pass leaves the recency order as the first pass
// left it, so the timeline is not touched again — unless a phantom (see
// timeline.regrow) lands in either pass, in which case the last pass is
// measured like the first.
func (s *solver) butterflies(p Butterflies) {
	ri, r := s.region(p.Region)
	lines := distinctLines(p.N, 1, r.ElemSize, s.cfg.LineSize)
	fam := s.lines(ri, lines)
	if s.settled(fam) {
		return
	}
	slots := fam.slots
	passes := bits.TrailingZeros(uint(p.N)) // log2(N) passes, N >= 4 so >= 2
	pass := func() {
		s.tl.begin(len(slots), false)
		for _, slot := range slots {
			s.visit(ri, slot, 1)
		}
		s.tl.commit()
	}
	measureLast := s.tl.growsWithin(2 * len(slots))
	pass()
	if mid := passes - 2; mid > 0 {
		s.miss[ri] += float64(mid) * float64(lines) * s.fracParts(nil, lines)
	}
	if measureLast {
		pass()
		return
	}
	s.tl.skip(len(slots))
	if c := s.frac(lines-1, lines-1, 1); c != 0 {
		for range slots {
			s.miss[ri] += c
		}
	}
}
