package analytic

import (
	"math"
	"math/bits"

	"github.com/resilience-models/dvf/internal/cache"
)

// The set-pressure miss model. A reused line survives in a CA-way LRU set
// iff fewer than CA distinct intervening lines mapped to its set. The
// kernels' interference consists of contiguous segments (streamed rows,
// whole vectors, grid rows), and a contiguous segment of len lines deals
// its lines across the NA sets as a base of floor(len/NA) per set plus a
// one-lap window of (len mod NA) consecutive sets that receive one more.
// The window's position rotates with the segment's start address, which
// the phase solvers do not track — so each window is modeled as an
// independent Bernoulli(rem/NA) indicator at the reused line's set, and
// the set pressure K becomes
//
//	K = sum(floors) + PoissonBinomial(windows) + own-segment term
//
// with missFraction = P(K >= CA). The own-segment term covers the reused
// line's own companions: when a segment re-traverses itself, the target
// set already holds floor(own/NA) own lines beyond the reused line (plus
// a window), which intervene between the line's consecutive touches.
//
// Far from capacity the floors alone decide (every reuse hits or every
// reuse misses — exact); inside the boundary band this reproduces the
// simulator's gradual leak where a scalar distance-over-capacity
// threshold is off by whole structures (CG's direction vector on the
// Small cache sits exactly there: three ~2-lap segments against a 4-way
// set leak ~1.4%, not ~90%).

// segPart describes `count` intervening segments of `lines` lines each.
type segPart struct {
	lines int64
	count int64
}

// missFracParts returns P(K >= CA) for a reuse whose gap consists of the
// given segment parts, re-traversed as part of a segment of ownLines
// lines (0 for a point access).
//
// The floors are summed first: when they alone reach CA the answer is 1,
// and otherwise only P(windows < need) is required, so the window
// distribution is built just below need. The distribution beyond need
// (and the "CA or more" mass the model clamps into its top bucket) never
// feeds the probabilities below it.
func missFracParts(parts []segPart, ownLines int64, cfg cache.Config) float64 {
	na := int64(cfg.Sets)
	ca := int64(cfg.Associativity)
	// Beyond limit window hits the verdict cannot change; the model's
	// distribution has limit+2 buckets, the last one "limit+1 or more".
	limit := int(ca)
	if limit > 62 {
		limit = 62
	}
	base, windows := int64(0), false
	for _, p := range parts {
		if p.count <= 0 || p.lines <= 0 {
			continue
		}
		base += p.count * (p.lines / na)
		windows = windows || p.lines%na != 0
	}
	own := ownLines > na
	if own {
		base += ownLines/na - 1
		windows = windows || ownLines%na != 0
	}
	need := ca - base
	if need <= 0 {
		return 1
	}
	if !windows || need > int64(limit)+1 {
		return 0
	}
	if surelyMissed(parts, na, need) {
		return 1
	}
	k := int(need)
	// pmf[c] is P(window sum == c) for c < k.
	var pmf, bin [64]float64
	pmf[0] = 1
	addWindows := func(trials int64, w float64) {
		if trials <= 0 || w <= 0 {
			return
		}
		// Binomial(trials, w) pmf below k, folded into the running
		// distribution (in place, highest bucket first).
		bin[0] = math.Pow(1-w, float64(trials))
		for b := 0; b+1 < k; b++ {
			bin[b+1] = bin[b] * float64(trials-int64(b)) / float64(b+1) * w / (1 - w)
		}
		for c := k - 1; c >= 0; c-- {
			sum := 0.0
			for a := 0; a <= c; a++ {
				if pmf[a] == 0 {
					continue
				}
				sum += pmf[a] * bin[c-a]
			}
			pmf[c] = sum
		}
	}
	for _, p := range parts {
		if p.count <= 0 || p.lines <= 0 {
			continue
		}
		addWindows(p.count, float64(p.lines%na)/float64(na))
	}
	if own {
		addWindows(1, float64(ownLines%na)/float64(na))
	}
	hit := 0.0
	for c := 0; c < k; c++ {
		hit += pmf[c]
	}
	frac := 1 - hit
	if frac < 0 {
		return 0
	}
	return frac
}

// surelyMissed reports whether some single window part alone makes
// fewer than need window hits so unlikely that missFracParts would
// return exactly 1. A part of T segments with rem = lines mod NA is
// Binomial(T, w) with w = rem/NA; with r = T*w/(1-w) = T*rem/(NA-rem),
//
//	P(< need) = sum_{b<need} C(T,b) w^b (1-w)^(T-b) <= need * max(1, r)^(need-1) * (1-w)^T,
//
// and ln(1-w) <= -w, so its log2 is under
//
//	bitlen(need) + (need-1)*max(0, bitlen(T*rem) - bitlen(NA-rem) + 1) - T*w*log2(e).
//
// The window sum is at least any one part, so when that is under -60
// the probability missFracParts accumulates — a sum of non-negative
// terms, each within a relative 1e-12 of the exact one (at most 62
// recurrence steps of four roundings) or below the subnormal range —
// stays under 2^-59, and 1 minus it rounds to exactly 1.
func surelyMissed(parts []segPart, na, need int64) bool {
	for _, p := range parts {
		rem := p.lines % na
		if p.count <= 0 || p.lines <= 0 || rem == 0 || p.count > 1<<40 {
			continue
		}
		bound := float64(bits.Len64(uint64(need))) - float64(p.count)*float64(rem)/float64(na)*math.Log2E
		if lr := bits.Len64(uint64(p.count*rem)) - bits.Len64(uint64(na-rem)) + 1; lr > 0 {
			bound += float64((need - 1) * int64(lr))
		}
		if bound < -60 {
			return true
		}
	}
	return false
}

// missFracGap models a gap known only as (lines, events) timeline totals:
// the events are assumed equal-length segments, with the division slack
// folded into a few one-line-longer parts.
func missFracGap(lines, events, ownLines int64, cfg cache.Config) float64 {
	if events <= 0 || lines <= 0 {
		if ownLines > int64(cfg.Sets)*int64(cfg.Associativity) {
			return missFracParts(nil, ownLines, cfg)
		}
		return 0
	}
	avg := lines / events
	rem := lines % events
	return missFracParts([]segPart{
		{lines: avg + 1, count: rem},
		{lines: avg, count: events - rem},
	}, ownLines, cfg)
}

// distinctLines returns the number of distinct cache lines touched by a
// region-base-aligned strided traversal of count elements of elemSize
// bytes at a stride of strideElems elements. Element offsets are
// elemSize-aligned multiples and elemSize is 8 or 16 against line sizes
// >= 8, so an element never straddles more lines than its own span.
func distinctLines(count, strideElems, elemSize, lineSize int) int64 {
	if count <= 0 {
		return 0
	}
	step := int64(strideElems) * int64(elemSize)
	ls := int64(lineSize)
	if step < ls {
		// Dense or overlapping: the footprint is one contiguous span.
		span := int64(count-1)*step + int64(elemSize)
		return ceilDiv(span, ls)
	}
	// Sparse: elements land in disjoint line groups, one per element.
	return int64(count) * ceilDiv(int64(elemSize), ls)
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// regionLines returns the total line footprint of a region.
func regionLines(r Region, lineSize int) int64 {
	return ceilDiv(r.Bytes, int64(lineSize))
}
