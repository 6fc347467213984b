package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// TestNilSinkIsFullyInert exercises every instrument through a nil
// registry: the whole surface must be a no-op, since the pipeline's
// default path runs with a nil Sink.
func TestNilSinkIsFullyInert(t *testing.T) {
	var r *Registry // the nil Sink
	c := r.Counter("c")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Errorf("nil counter value = %d, want 0", got)
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(3)
	g.SetMax(99)
	if got := g.Value(); got != 0 {
		t.Errorf("nil gauge value = %d, want 0", got)
	}
	h := r.Histogram("h")
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram count/sum = %d/%d, want 0/0", h.Count(), h.Sum())
	}
	tm := r.Timer("t_ns")
	sw := tm.Start()
	tm.Observe(time.Second)
	sw.Stop()
	r.SampleMem()
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("nil registry snapshot is not empty: %+v", snap)
	}
}

// TestRegistryIdempotentLookup checks that re-requesting a name returns
// the same instrument, so shared counters accumulate in one place.
func TestRegistryIdempotentLookup(t *testing.T) {
	r := New()
	r.Counter("x").Add(1)
	r.Counter("x").Add(2)
	if got := r.Counter("x").Value(); got != 3 {
		t.Errorf("counter after two lookups = %d, want 3", got)
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram lookup is not idempotent")
	}
}

// TestConcurrentHammering drives every instrument type from many
// goroutines; run under -race this is the package's data-race gate, and
// the final totals must be exact (atomics lose nothing).
func TestConcurrentHammering(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10000
	)
	r := New()
	c := r.Counter("hammer.counter")
	g := r.Gauge("hammer.gauge")
	h := r.Histogram("hammer.hist")
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.SetMax(int64(w*perG + i))
				h.Observe(int64(i))
				// Interleave lookups to race instrument creation too.
				r.Counter("hammer.counter").Add(0)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG-1 {
		t.Errorf("gauge max = %d, want %d", got, goroutines*perG-1)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	wantSum := int64(goroutines) * int64(perG) * int64(perG-1) / 2
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %d, want %d", got, wantSum)
	}
	hs := h.snapshot()
	if hs.Min != 0 || hs.Max != perG-1 {
		t.Errorf("histogram min/max = %d/%d, want 0/%d", hs.Min, hs.Max, perG-1)
	}
	var bucketTotal int64
	for _, n := range hs.Buckets {
		bucketTotal += n
	}
	if bucketTotal != hs.Count {
		t.Errorf("bucket counts sum to %d, want %d", bucketTotal, hs.Count)
	}
}

// TestHistogramBuckets pins the log2 bucketing scheme.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketLow(0) != 0 || BucketLow(1) != 1 || BucketLow(4) != 8 {
		t.Errorf("BucketLow scheme broken: %d %d %d",
			BucketLow(0), BucketLow(1), BucketLow(4))
	}
}

// TestHistogramQuantile checks the bucket-upper-bound quantile estimate.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.snapshot()
	// p50 of 1..1000 is 500, whose bucket [256,512) has upper edge 511.
	if got := s.Quantile(0.50); got != 511 {
		t.Errorf("p50 = %d, want 511", got)
	}
	// p100 lands in bucket [512,1024), whose upper edge 1023 is clamped to
	// the largest observation.
	if got := s.Quantile(1.0); got != 1000 {
		t.Errorf("p100 = %d, want 1000", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d, want 0", got)
	}
}

// TestSnapshotQuantileFields checks that snapshot and diff denormalize
// p50/p90/p99 into the encoded form, and that Quantiles agrees with them.
func TestSnapshotQuantileFields(t *testing.T) {
	h := newHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.snapshot()
	p50, p90, p99 := s.Quantiles()
	if s.P50 != p50 || s.P90 != p90 || s.P99 != p99 {
		t.Errorf("snapshot fields (%d,%d,%d) disagree with Quantiles (%d,%d,%d)",
			s.P50, s.P90, s.P99, p50, p90, p99)
	}
	if s.P50 != 511 || s.P90 != 1000 || s.P99 != 1000 {
		t.Errorf("quantiles of 1..1000 = (%d,%d,%d), want (511,1000,1000)",
			s.P50, s.P90, s.P99)
	}
	// Diffing against a prefix must recompute quantiles from the interval
	// buckets, not carry over the lifetime values.
	base := h.snapshot()
	for i := int64(0); i < 5000; i++ {
		h.Observe(1 << 20)
	}
	// The interval's bucket [2^20, 2^21) would bound p50 by 2^21-1; the
	// clamp to Max brings it down to the one value observed there.
	d := h.snapshot().diff(base)
	if d.P50 != 1<<20 {
		t.Errorf("interval p50 = %d, want %d", d.P50, int64(1<<20))
	}
	if (HistogramSnapshot{}).withQuantiles().P99 != 0 {
		t.Error("empty snapshot grew a p99")
	}
}

// TestQuantileWithinObservedRange is the quantile property: for any set
// of observations, Min <= Quantile(q) <= Max and Quantile is monotone in q.
func TestQuantileWithinObservedRange(t *testing.T) {
	prop := func(raw []int64, shift uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := newHistogram()
		for _, v := range raw {
			// Spread the values over every bucket, negatives included.
			h.Observe(v >> (shift % 64))
		}
		s := h.snapshot()
		prev := int64(math.MinInt64)
		for i := 0; i <= 100; i++ {
			q := float64(i) / 100
			got := s.Quantile(q)
			if got < s.Min || got > s.Max || got < prev {
				t.Logf("q=%.2f: %d outside [%d, %d] or below %d", q, got, s.Min, s.Max, prev)
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestTimerObserves checks that a stopwatch lands one observation in the
// underlying nanosecond histogram.
func TestTimerObserves(t *testing.T) {
	r := New()
	tm := r.Timer("section_ns")
	sw := tm.Start()
	time.Sleep(time.Millisecond)
	sw.Stop()
	tm.Observe(2 * time.Millisecond)
	hs := r.Histogram("section_ns")
	if got := hs.Count(); got != 2 {
		t.Fatalf("timer observations = %d, want 2", got)
	}
	if hs.Sum() < int64(2*time.Millisecond) {
		t.Errorf("timer sum %dns is below the slept duration", hs.Sum())
	}
}

// TestSampleMem checks the gauges the memory sampler must always provide.
func TestSampleMem(t *testing.T) {
	r := New()
	r.SampleMem()
	s := r.Snapshot()
	for _, name := range []string{"mem.heap_alloc_bytes", "mem.heap_alloc_peak_bytes", "mem.num_gc"} {
		if _, ok := s.Gauges[name]; !ok {
			t.Errorf("SampleMem did not set %s", name)
		}
	}
	if s.Gauges["mem.heap_alloc_bytes"] <= 0 {
		t.Errorf("heap_alloc = %d, want > 0", s.Gauges["mem.heap_alloc_bytes"])
	}
}
