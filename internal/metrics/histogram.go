package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count of every histogram: bucket 0 holds
// non-positive observations, bucket i (1 <= i <= 64) holds values v with
// bits.Len64(v) == i, i.e. the half-open range [2^(i-1), 2^i). Fixed log2
// bucketing keeps Observe at two atomic adds with no per-histogram
// configuration, at a worst-case relative error of 2x on quantile
// estimates — plenty for the order-of-magnitude questions (ns per ref,
// batch occupancy, stall duration) the pipeline asks.
const histBuckets = 65

// Histogram accumulates int64 observations into fixed log2 buckets, with
// exact sum, count, min and max. All methods are safe for concurrent use
// and safe on a nil receiver (no-ops).
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the smallest value landing in bucket i (0 for bucket 0).
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations (zero on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (zero on a nil histogram).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot captures the histogram's state. Concurrent Observe calls may
// land between the field reads; each field is individually consistent.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n != 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[i] = n
		}
	}
	return s.withQuantiles()
}

// HistogramSnapshot is the frozen, encodable form of a Histogram. Buckets
// maps bucket index (see BucketLow) to observation count; empty buckets are
// omitted. Min and Max are only meaningful when Count > 0, and after a Diff
// they describe the newer snapshot's whole lifetime, not the interval.
// P50/P90/P99 are the precomputed Quantile upper bounds — denormalized
// into the encoding (additively, so schema-1 consumers and committed
// baselines keep decoding) so dashboards and bench reports read tail
// latency without reimplementing the bucket walk.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Min     int64         `json:"min,omitempty"`
	Max     int64         `json:"max,omitempty"`
	P50     int64         `json:"p50,omitempty"`
	P90     int64         `json:"p90,omitempty"`
	P99     int64         `json:"p99,omitempty"`
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// withQuantiles fills the denormalized P50/P90/P99 fields from the bucket
// counts; snapshot and diff both route through it so the fields always
// describe the snapshot they travel with.
func (s HistogramSnapshot) withQuantiles() HistogramSnapshot {
	if s.Count > 0 {
		s.P50, s.P90, s.P99 = s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99)
	}
	return s
}

// Quantiles returns the p50/p90/p99 upper bounds in one call.
func (s HistogramSnapshot) Quantiles() (p50, p90, p99 int64) {
	return s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99)
}

// Mean returns Sum/Count, or 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) from the
// bucket counts: the upper edge of the bucket containing the q-th
// observation, exact to within the 2x bucket width, clamped to [Min, Max]
// so the bound never leaves the observed range.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += s.Buckets[i]
		if seen >= rank {
			return min(max(bucketHigh(i), s.Min), s.Max)
		}
	}
	return s.Max
}

// bucketHigh returns the largest value landing in bucket i.
func bucketHigh(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return math.MaxInt64
	}
	return 1<<i - 1
}

// diff returns the per-interval delta s - base: counts, sums and buckets
// subtract; Min and Max carry over from s (the newer snapshot) because
// extrema are not recoverable for an interval.
func (s HistogramSnapshot) diff(base HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: s.Count - base.Count,
		Sum:   s.Sum - base.Sum,
		Min:   s.Min,
		Max:   s.Max,
	}
	for i, n := range s.Buckets {
		if d := n - base.Buckets[i]; d != 0 {
			if out.Buckets == nil {
				out.Buckets = make(map[int]int64)
			}
			out.Buckets[i] = d
		}
	}
	return out.withQuantiles()
}
