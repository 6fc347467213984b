package kernels

import (
	"math/bits"

	"github.com/resilience-models/dvf/internal/cache"
)

// cgTemplate is CG's Algorithm 4 access template at size n, with the
// byte bases Run's registry gives A, x, p, r and q (cgTemplateRegions).
// Before the first iteration the template reads r once; each iteration
// then makes these references, every element 8 bytes:
//
//	for i: for j: A(i,j), p(j);  q(i)   (q = A p)
//	for i: p(i), q(i)                  (p.q)
//	for i: x(i), p(i), x(i)            (x += alpha p)
//	for i: r(i), q(i), r(i)            (r -= alpha q)
//	for i: r(i)                        (rho' = r.r)
//	for i: r(i), p(i), p(i)            (p = r + beta p)
//
// pMisses counts p's misses in it without simulating it. In an LRU set
// a block's reference hits exactly when the block was referenced before
// and fewer than Associativity distinct other blocks of its set have
// been referenced since: its stack distance. Each window since a p
// block's last reference is a few contiguous element ranges, so the
// distinct blocks of the block's set in it are counted by interval
// arithmetic on the set index.
//
// Only the first iteration's first touches of p are compulsory. Every
// later iteration's windows are those of the second, which reach back no
// further than the first iteration's last loop, since every loop of an
// iteration but two touches all of p. So the misses are M1 + (iters-1)*M2.
type cgTemplate struct {
	n             uint64
	a, x, p, r, q uint64
}

// newCGTemplate lays out the template of an n x n CG.
func newCGTemplate(n int) cgTemplate {
	regs := cgTemplateRegions(n)
	return cgTemplate{n: uint64(n), a: regs[0].Base, x: regs[1].Base, p: regs[2].Base, r: regs[3].Base, q: regs[4].Base}
}

// setIndex counts blocks by set for a geometry, with shifts only.
type setIndex struct {
	ls, sh uint   // log2 of the line size and of the set count
	mask   uint64 // sets - 1
	ways   int64
}

// in returns how many of blocks lo..hi fall in set s, 0 when hi < lo.
func (g setIndex) in(lo, hi, s uint64) int64 {
	if hi < lo {
		return 0
	}
	return int64((hi+1+g.mask-s)>>g.sh - (lo+g.mask-s)>>g.sh)
}

// elems returns how many blocks of the 8-byte elements [e0, e1) of the
// region at base fall in set s.
func (g setIndex) elems(base, e0, e1, s uint64) int64 {
	if e1 <= e0 {
		return 0
	}
	return g.in((base+e0*elem8)>>g.ls, (base+e1*elem8-1)>>g.ls, s)
}

// miss is 1 when a window holding c distinct other blocks of a set
// evicts the block it follows.
func (g setIndex) miss(c int64) int64 {
	if c >= g.ways {
		return 1
	}
	return 0
}

// pMisses returns p's misses in iters >= 1 iterations of the template
// on cfg, which must be valid.
func (t *cgTemplate) pMisses(cfg cache.Config, iters int) int64 {
	g := setIndex{
		ls:   uint(bits.TrailingZeros(uint(cfg.LineSize))),
		sh:   uint(bits.TrailingZeros(uint(cfg.Sets))),
		mask: uint64(cfg.Sets - 1),
		ways: int64(cfg.Associativity),
	}
	if g.ls > 12 {
		// Lines longer than the registry's 4096-byte alignment let
		// structures share blocks.
		return t.sharedPMisses(g, iters)
	}
	n, ls := t.n, g.ls
	// The regions are line-aligned and share no block. An element spans
	// m = 2^mlog lines when lines are shorter than it; otherwise m is 1
	// and a line may hold several elements. p's block k, counted from
	// p's first, holds elements first(k)..last(k).
	mlog := uint(0)
	if ls < 3 {
		mlog = 3 - ls
	}
	m := uint64(1) << mlog
	pb := t.p >> ls
	P := (n*elem8 + 1<<ls - 1) >> ls
	J := (n * elem8 >> ls) >> mlog // blocks per class of whole blocks (below)
	// The p blocks k with k mod Sets below rP share their set with qP
	// other p blocks; the rest with qP-1.
	qP, rP := int64(P>>g.sh), P&g.mask
	// others returns the p blocks other than k in k's set.
	others := func(k uint64) int64 {
		if k&g.mask < rP {
			return qP
		}
		return qP - 1
	}
	first := func(k uint64) uint64 { return k << ls >> 3 }
	last := func(k uint64) uint64 { return min(n, ((k+1)<<ls+7)>>3) - 1 }

	// perIter counts the misses every iteration has; warm counts row 0's
	// first touches, which are compulsory in the first iteration only.
	var perIter, warm int64

	// A p block's first touch in matvec row i >= 1 follows its touch in
	// row i-1 by all other p blocks, q(i-1) and the A elements from
	// A(i-1, jl+1) to A(i, jf). Split p's blocks into classes: blocks
	// k = m*j + u for j < J, for each u < m, and, when lines are longer
	// than an element and do not divide p, its last block. Moving a
	// class's block by m moves its A window by m blocks too, so the
	// window's count of A blocks in the block's set is the class's. When
	// no window can hold Associativity other blocks of a set, every first
	// touch in a row hits and the rows are skipped.
	maxOthers := qP
	if rP == 0 {
		maxOthers--
	}
	maxA := (n*elem8>>ls + 2 + g.mask) >> g.sh
	maxQ := (m + g.mask) >> g.sh
	if maxOthers+int64(maxA+maxQ) >= g.ways {
		qSets := min(m, g.mask+1)
		for i := uint64(1); i < n; i++ {
			lo := (t.a+(i-1)*n*elem8)>>ls + m
			hi := (t.a + i*n*elem8 + 7) >> ls
			qb := (t.q + (i-1)*elem8) >> ls
			for u := uint64(0); u < m; u++ {
				a := g.in(lo, hi, (pb+u)&g.mask)
				hiCount := g.countLess(J, mlog, u, rP)
				perIter += hiCount*g.miss(qP+a) + (int64(J)-hiCount)*g.miss(qP-1+a)
				// q(i-1)'s m blocks add their count to the blocks of
				// their sets.
				for v := uint64(0); v < qSets; v++ {
					r := (qb + v - pb) & g.mask
					if c := g.countEq(J, mlog, u, r); c > 0 {
						o := others(r) + a
						perIter += c * (g.miss(o+int64(m/qSets)) - g.miss(o))
					}
				}
			}
			if k := J; mlog == 0 && k < P {
				s := (pb + k) & g.mask
				c := others(k) + g.elems(t.a, i*n, i*n+first(k)+1, s) + g.in(qb, qb, s)
				perIter += g.miss(c)
			}
		}
	}

	// First touches in the other loops, block by block: row 0 follows
	// the last loop's touch; the dot product, row n-1's; the x update,
	// the dot product's; the p update, the x update's, with the r and q
	// updates and the norm between.
	for k := uint64(0); k < P; k++ {
		s, jf, jl := (pb+k)&g.mask, first(k), last(k)
		o := others(k)
		warm += g.miss(o + g.elems(t.a, 0, jf+1, s) + g.elems(t.r, jl+1, n, s))
		// q is aligned as p is, so q(jf-1) and q(n-1) share no block.
		q := g.elems(t.q, 0, jf, s) + g.elems(t.q, n-1, n, s)
		perIter += g.miss(o + g.elems(t.a, (n-1)*n+jl+1, n*n, s) + q)
		perIter += g.miss(o + g.elems(t.q, jl, n, s) + g.elems(t.x, 0, jf+1, s))
		perIter += g.miss(o + g.elems(t.x, jl, n, s) + g.elems(t.q, 0, n, s) + g.elems(t.r, 0, n, s))
	}

	// Later touches of a block within a loop follow the previous touch by
	// one other block, so they miss only in a direct-mapped cache, when
	// that block shares p's set: A(i,j) in the matvec, q(j-1), x(j) and
	// r(j) in the other loops. Each lies at p's offset in its line.
	if g.ways == 1 && ls >= 4 {
		later := int64(n - P) // p's references that are not a block's first
		for _, base := range []uint64{t.q, t.x, t.r} {
			if (base>>ls-pb)&g.mask == 0 {
				perIter += later
			}
		}
		line := uint64(1) << ls
		tail := n*elem8 - J<<ls // the last, partial block's bytes, if any
		// below and from count the later offsets of a block of bl bytes
		// before and from offset c.
		below := func(bl, c uint64) uint64 { return max(min(bl, c)>>3, 1) - 1 }
		from := func(bl, c uint64) uint64 { return (max(bl, c) - c) >> 3 }
		for i := uint64(0); i < n; i++ {
			// A(i,j) lies row - p bytes past p(j): in the line as many
			// lines past p(j)'s as row's line is past p's first, while
			// p(j)'s offset in its line is below c, and in the one after
			// from there on. That line shares p(j)'s set when the count,
			// z mod Sets, is 0 or -1 respectively.
			row := t.a + i*n*elem8
			z, c := (row>>ls-pb)&g.mask, line-row&(line-1)
			if z == 0 {
				perIter += int64(J*below(line, c) + below(tail, c))
			}
			if (z+1)&g.mask == 0 {
				perIter += int64(J*from(line, c) + from(tail, c))
			}
		}
	}
	// Lines shorter than an element: p(j)'s second read in the p update
	// follows its first by p(j)'s other blocks.
	if mlog > g.sh && int64(m>>g.sh)-1 >= g.ways {
		perIter += int64(P)
	}
	return int64(P) + int64(iters)*perIter + int64(iters-1)*warm
}

// countLess returns how many j < J put block m*j + u, m = 2^mlog and
// u < m, in a set below t.
func (g setIndex) countLess(J uint64, mlog uint, u, t uint64) int64 {
	if mlog >= g.sh {
		if u&g.mask < t {
			return int64(J)
		}
		return 0
	}
	if t <= u {
		return 0
	}
	// Sets/m consecutive j visit sets u, u+m, u+2m, ...
	per := g.sh - mlog
	below := min((t-u+1<<mlog-1)>>mlog, 1<<per)
	return int64(J>>per*below + min(J&(1<<per-1), below))
}

// countEq returns how many j < J put block m*j + u in set s.
func (g setIndex) countEq(J uint64, mlog uint, u, s uint64) int64 {
	if mlog >= g.sh {
		if u&g.mask == s {
			return int64(J)
		}
		return 0
	}
	if s < u || (s-u)&(1<<mlog-1) != 0 {
		return 0
	}
	per := g.sh - mlog
	return int64((J + 1<<per - 1 - (s-u)>>mlog) >> per)
}

// cgRun is a line run of the template: steps repeats of one loop's body
// whose references stay in blocks blk[:k]. Bit i of p marks reference i
// as p's.
type cgRun struct {
	blk   [3]uint64
	k, p  uint8
	steps uint64
}

// runs lays the template out as line runs, the first r pass and then
// iterations iterations, into dst, and returns it and the index of each
// iteration's first run in starts. With a nil dst it only counts them.
func (t *cgTemplate) runs(ls uint, iterations int, dst []cgRun, starts *[3]int) ([]cgRun, int) {
	count := 0
	loop := func(steps uint64, k int, addr [3]uint64, p uint8) {
		line := uint64(1) << ls
		for steps > 0 {
			run := cgRun{k: uint8(k), p: p, steps: steps}
			for i := range k {
				run.blk[i] = addr[i] >> ls
				run.steps = min(run.steps, (line-addr[i]&(line-1))>>3)
			}
			if dst != nil {
				dst = append(dst, run)
			}
			count++
			for i := range k {
				addr[i] += run.steps << 3
			}
			steps -= run.steps
		}
	}
	n := t.n
	loop(n, 1, [3]uint64{t.r}, 0)
	for it := range iterations {
		starts[it] = count
		for i := range n {
			loop(n, 2, [3]uint64{t.a + i*n*elem8, t.p}, 0b10)
			loop(1, 1, [3]uint64{t.q + i*elem8}, 0)
		}
		loop(n, 2, [3]uint64{t.p, t.q}, 0b01)
		loop(n, 3, [3]uint64{t.x, t.p, t.x}, 0b010)
		loop(n, 3, [3]uint64{t.r, t.q, t.r}, 0)
		loop(n, 1, [3]uint64{t.r}, 0)
		loop(n, 3, [3]uint64{t.r, t.p, t.p}, 0b110)
	}
	starts[iterations] = count
	return dst, count
}

// sharedPMisses is pMisses for lines longer than the regions' alignment,
// where a block can hold parts of several structures. The template is
// laid out as line runs, at most a few per matvec row; each p reference
// of a run's first step finds its stack distance by scanning back, run
// by run, to its block's last reference, and every later step of the
// run repeats the distance of its second.
func (t *cgTemplate) sharedPMisses(g setIndex, iters int) int64 {
	iterations := min(iters, 2)
	var starts [3]int
	_, count := t.runs(g.ls, iterations, nil, &starts)
	runs, _ := t.runs(g.ls, iterations, make([]cgRun, 0, count), &starts)
	// seen[b-base] == epoch marks block b as counted in this scan.
	base := t.a >> g.ls
	seen := make([]uint32, (t.q+t.n*elem8-1)>>g.ls-base+1)
	epoch := uint32(0)
	// hits reports whether reference pos of run x hits, on its run's
	// first step or on a later one.
	hits := func(x, pos int, later bool) bool {
		b := runs[x].blk[pos]
		epoch++
		others := int64(0)
		// Scan back from the reference before this one. Past the start of
		// its step, a later step goes on into the run's previous step,
		// which holds b at pos; a first step goes on into the run before.
		for y, i := x, pos-1; ; i-- {
			if i < 0 {
				if !later {
					y--
				}
				later = false
				if y < 0 {
					return false // b's first reference
				}
				i = int(runs[y].k) - 1
			}
			c := runs[y].blk[i]
			if c == b {
				return true
			}
			if (c^b)&g.mask == 0 && seen[c-base] != epoch {
				seen[c-base] = epoch
				if others++; others >= g.ways {
					return false
				}
			}
		}
	}
	var m [2]int64
	for it := range iterations {
		for x := starts[it]; x < starts[it+1]; x++ {
			for pos := range int(runs[x].k) {
				if runs[x].p>>pos&1 == 0 {
					continue
				}
				if !hits(x, pos, false) {
					m[it]++
				}
				if runs[x].steps > 1 && !hits(x, pos, true) {
					m[it] += int64(runs[x].steps - 1)
				}
			}
		}
	}
	return m[0] + int64(iters-1)*m[1]
}
