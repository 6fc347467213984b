package analytic

import (
	"math"
	"math/bits"

	"github.com/resilience-models/dvf/internal/cache"
)

// rowSolve is the per-row reference solver: it walks every grid row of
// the MG phases and every swapped line of the FFT bit-reversal through a
// plain Fenwick reuse-distance timeline, one touch at a time, and charges
// each touch from its own miss-fraction evaluation. Solve must return
// bit-for-bit the same per-structure misses; FuzzSolveVsPerRow and
// TestSolveMatchesPerRow hold it to that.
func rowSolve(d *Descriptor, cfg cache.Config) []float64 {
	s := &rowSolver{
		d:    d,
		cfg:  cfg,
		tl:   newRowTimeline(),
		ridx: make(map[string]int, len(d.Regions)),
		miss: make([]float64, len(d.Regions)),
	}
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
	for i, r := range d.Regions {
		s.ridx[r.Name] = i
	}
	s.phases(d.Phases)
	return s.miss
}

type rowSolver struct {
	d            *Descriptor
	cfg          cache.Config
	tl           *rowTimeline
	ridx         map[string]int
	miss         []float64
	conflictFree bool
}

func (s *rowSolver) fracGap(lines, events, ownLines int64) float64 {
	if s.conflictFree {
		return 0
	}
	return rowMissFracGap(lines, events, ownLines, s.cfg)
}

func (s *rowSolver) fracParts(parts []segPart, ownLines int64) float64 {
	if s.conflictFree {
		return 0
	}
	return rowMissFracParts(parts, ownLines, s.cfg)
}

func (s *rowSolver) key(ri int, sub int64) int64 { return int64(ri)<<40 | sub }

func (s *rowSolver) phases(ps []Phase) {
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

func (s *rowSolver) touch(ri int, sub, lines int64) {
	if lines <= 0 {
		return
	}
	d, e, first := s.tl.Touch(s.key(ri, sub), lines)
	if first {
		s.miss[ri] += float64(lines)
		return
	}
	s.miss[ri] += float64(lines) * s.fracGap(d, e, lines)
}

func (s *rowSolver) region(name string) (int, Region) {
	ri := s.ridx[name]
	return ri, s.d.Regions[ri]
}

func (s *rowSolver) stream(p Stream) {
	seen := make(map[int]bool, len(p.Streams))
	for _, t := range p.Streams {
		ri, r := s.region(t.Region)
		if seen[ri] {
			continue
		}
		seen[ri] = true
		s.touch(ri, 0, distinctLines(t.Count, t.StrideElems, r.ElemSize, s.cfg.LineSize))
	}
}

func (s *rowSolver) matVec(p MatVec) {
	vi, vr := s.region(p.Vec)
	mi, mr := s.region(p.Matrix)
	oi, or := s.region(p.Out)
	ls := s.cfg.LineSize
	vecLines := distinctLines(p.N, 1, vr.ElemSize, ls)
	rowLines := distinctLines(p.N, 1, mr.ElemSize, ls)
	outLines := distinctLines(p.N, 1, or.ElemSize, ls)
	s.touch(vi, 0, vecLines)
	s.touch(mi, 0, regionLines(mr, ls))
	s.touch(oi, 0, outLines)
	inner := s.fracParts([]segPart{{lines: rowLines, count: 1}, {lines: 1, count: 1}}, vecLines)
	s.miss[vi] += float64(p.N-1) * float64(vecLines) * inner
	s.tl.Touch(s.key(vi, 0), vecLines)
	s.tl.Touch(s.key(oi, 0), outLines)
}

func (s *rowSolver) touchRow(ri int, r Region, startElem, dim int) {
	lines := distinctLines(dim, 1, r.ElemSize, s.cfg.LineSize)
	s.touch(ri, 1+int64(startElem), lines)
}

func (s *rowSolver) smooth(p Smooth) {
	ri, r := s.region(p.Region)
	n := p.Dim
	row := func(i, j int) int { return p.OffsetElems + (i*n+j)*n }
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			s.touchRow(ri, r, row(i, j-1), n)
			s.touchRow(ri, r, row(i, j+1), n)
			s.touchRow(ri, r, row(i-1, j), n)
			s.touchRow(ri, r, row(i+1, j), n)
			s.touchRow(ri, r, row(i, j), n)
		}
	}
}

func (s *rowSolver) restrict(p Restrict) {
	ri, r := s.region(p.Region)
	nf, nc := p.FineDim, p.CoarseDim
	rowF := func(i, j int) int { return p.FineOffset + (i*nf+j)*nf }
	rowC := func(i, j int) int { return p.CoarseOffs + (i*nc+j)*nc }
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			for di := 0; di < 2; di++ {
				for dj := 0; dj < 2; dj++ {
					s.touchRow(ri, r, rowF(2*i+di, 2*j+dj), nf)
				}
			}
			s.touchRow(ri, r, rowC(i, j), nc)
		}
	}
}

func (s *rowSolver) prolong(p Prolong) {
	ri, r := s.region(p.Region)
	nf, nc := p.FineDim, p.CoarseDim
	rowF := func(i, j int) int { return p.FineOffset + (i*nf+j)*nf }
	rowC := func(i, j int) int { return p.CoarseOffs + (i*nc+j)*nc }
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			s.touchRow(ri, r, rowC(i, j), nc)
			for di := 0; di < 2; di++ {
				for dj := 0; dj < 2; dj++ {
					s.touchRow(ri, r, rowF(2*i+di, 2*j+dj), nf)
				}
			}
		}
	}
}

func (s *rowSolver) touchLine(ri int, line int64) {
	d, e, first := s.tl.Touch(s.key(ri, 1+line), 1)
	if first {
		s.miss[ri]++
		return
	}
	s.miss[ri] += s.fracGap(d, e, 1)
}

func (s *rowSolver) bitReverse(p BitReverse) {
	ri, r := s.region(p.Region)
	es, ls := int64(r.ElemSize), int64(s.cfg.LineSize)
	logN := bits.TrailingZeros(uint(p.N))
	visit := func(e int64) {
		for b := e * es / ls; b <= (e*es+es-1)/ls; b++ {
			s.touchLine(ri, b)
		}
	}
	for i := 0; i < p.N; i++ {
		j := int(bits.Reverse32(uint32(i)) >> (32 - logN))
		if i < j {
			visit(int64(i))
			visit(int64(j))
		}
	}
}

func (s *rowSolver) butterflies(p Butterflies) {
	ri, r := s.region(p.Region)
	lines := distinctLines(p.N, 1, r.ElemSize, s.cfg.LineSize)
	passes := bits.TrailingZeros(uint(p.N))
	emitPass := func() {
		for b := int64(0); b < lines; b++ {
			s.touchLine(ri, b)
		}
	}
	emitPass()
	if mid := passes - 2; mid > 0 {
		s.miss[ri] += float64(mid) * float64(lines) * s.fracParts(nil, lines)
	}
	if passes >= 2 {
		emitPass()
	}
}

// rowTimeline is the one-event-per-touch Bennett–Kruskal counter the
// reference solver walks: a Fenwick tree of live weights and one of live
// event markers over touch positions, and a map from segment key to its
// latest position. Its regrowth re-inserts the touch that triggered it
// (already in weights) and Touch then adds it again; the golden profiles
// were pinned with that double count, and timeline.regrow reproduces it.
type rowTimeline struct {
	tree    []int64
	etree   []int64
	weights []int64
	last    map[int64]int
	n       int
}

func newRowTimeline() *rowTimeline {
	return &rowTimeline{
		tree:    make([]int64, 1024+1),
		etree:   make([]int64, 1024+1),
		weights: make([]int64, 0, 1024),
		last:    make(map[int64]int, 256),
	}
}

func (t *rowTimeline) Touch(key int64, weight int64) (dist, events int64, first bool) {
	prev, seen := t.last[key]
	if seen {
		dist = t.sum(t.tree, t.n) - t.sum(t.tree, prev)
		events = t.sum(t.etree, t.n) - t.sum(t.etree, prev)
		t.add(t.tree, prev, -t.weights[prev-1])
		t.add(t.etree, prev, -1)
		t.weights[prev-1] = 0
	} else {
		dist = t.sum(t.tree, t.n)
		events = t.sum(t.etree, t.n)
	}
	t.n++
	t.weights = append(t.weights, weight)
	if t.n >= len(t.tree) {
		t.grow()
	}
	t.add(t.tree, t.n, weight)
	t.add(t.etree, t.n, 1)
	t.last[key] = t.n
	return dist, events, !seen
}

func (t *rowTimeline) grow() {
	t.tree = make([]int64, 2*len(t.tree))
	t.etree = make([]int64, len(t.tree))
	for pos, w := range t.weights {
		if w != 0 {
			t.add(t.tree, pos+1, w)
			t.add(t.etree, pos+1, 1)
		}
	}
}

func (t *rowTimeline) add(tree []int64, pos int, delta int64) {
	for ; pos < len(tree); pos += pos & -pos {
		tree[pos] += delta
	}
}

func (t *rowTimeline) sum(tree []int64, pos int) int64 {
	var s int64
	for ; pos > 0; pos -= pos & -pos {
		s += tree[pos]
	}
	return s
}

// RowSolve exposes the per-row reference solver to the external test
// package, which can import the kernels that build real descriptors.
var RowSolve = rowSolve

// rowMissFracParts is the miss model as the golden profiles were pinned
// with: it builds the whole clamped window distribution before looking at
// the floors. missFracParts must agree with it bit for bit.
//
// It returns P(K >= CA) for a reuse whose gap consists of the
// given segment parts, re-traversed as part of a segment of ownLines
// lines (0 for a point access).
func rowMissFracParts(parts []segPart, ownLines int64, cfg cache.Config) float64 {
	na := int64(cfg.Sets)
	ca := int64(cfg.Associativity)
	base := int64(0)
	// pmf[k] is P(window sum == k), truncated at need; need tracks the
	// remaining window hits required once floors are subtracted.
	var pmf [64]float64
	pmf[0] = 1
	top := 0
	addWindows := func(trials int64, w float64) {
		if trials <= 0 || w <= 0 {
			return
		}
		// Binomial(trials, w) pmf up to the truncation point, folded into
		// the running distribution. Beyond ca hits the verdict cannot
		// change, so everything is clamped there.
		var bin [64]float64
		limit := int(ca)
		if limit >= len(bin)-1 {
			limit = len(bin) - 2
		}
		bin[0] = math.Pow(1-w, float64(trials))
		tail := 1 - bin[0]
		for k := 0; k < limit; k++ {
			bin[k+1] = bin[k] * float64(trials-int64(k)) / float64(k+1) * w / (1 - w)
			tail -= bin[k+1]
		}
		if tail < 0 {
			tail = 0
		}
		bin[limit+1] = tail // probability mass of "limit+1 or more"
		var out [64]float64
		for a := 0; a <= top; a++ {
			if pmf[a] == 0 {
				continue
			}
			for b := 0; b <= limit+1; b++ {
				c := a + b
				if c > limit+1 {
					c = limit + 1
				}
				out[c] += pmf[a] * bin[b]
			}
		}
		pmf = out
		top = limit + 1
	}
	for _, p := range parts {
		if p.count <= 0 || p.lines <= 0 {
			continue
		}
		base += p.count * (p.lines / na)
		addWindows(p.count, float64(p.lines%na)/float64(na))
	}
	if ownLines > na {
		base += ownLines/na - 1
		addWindows(1, float64(ownLines%na)/float64(na))
	}
	need := ca - base
	if need <= 0 {
		return 1
	}
	if int(need) > top {
		return 0
	}
	hit := 0.0
	for k := 0; k < int(need); k++ {
		hit += pmf[k]
	}
	frac := 1 - hit
	if frac < 0 {
		return 0
	}
	return frac
}

// rowMissFracGap models a gap known only as (lines, events) timeline totals:
// the events are assumed equal-length segments, with the division slack
// folded into a few one-line-longer parts.
func rowMissFracGap(lines, events, ownLines int64, cfg cache.Config) float64 {
	if events <= 0 || lines <= 0 {
		if ownLines > int64(cfg.Sets)*int64(cfg.Associativity) {
			return rowMissFracParts(nil, ownLines, cfg)
		}
		return 0
	}
	avg := lines / events
	rem := lines % events
	return rowMissFracParts([]segPart{
		{lines: avg + 1, count: rem},
		{lines: avg, count: events - rem},
	}, ownLines, cfg)
}
