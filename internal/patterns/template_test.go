package patterns

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/mathx"
)

// naiveStackMisses is a brute-force reference for the two-step algorithm
// with LRU stack distance, used to validate the TemplateCounter.
func naiveStackMisses(blocks []int64, capacity int) int64 {
	var misses int64
	last := map[int64]int{}
	for i, b := range blocks {
		prev, seen := last[b]
		if !seen {
			misses++
		} else {
			distinct := map[int64]bool{}
			for _, v := range blocks[prev+1 : i] {
				distinct[v] = true
			}
			if len(distinct) >= capacity {
				misses++
			}
		}
		last[b] = i
	}
	return misses
}

// counterMisses feeds blocks to a TemplateCounter of capacity blocks
// and returns its misses.
func counterMisses(blocks []int64, capacity int) int64 {
	ctr := NewTemplateCounter(capacity)
	for _, b := range blocks {
		ctr.Visit(b)
	}
	return ctr.Misses()
}

func TestTemplateFirstTouchOnly(t *testing.T) {
	// 4 distinct blocks, all reuses within the 8 KB cache's 256 lines.
	if got := counterMisses([]int64{0, 1, 2, 3, 2, 1, 0, 3}, small().Lines()); got != 4 {
		t.Errorf("template misses = %d, want 4", got)
	}
}

func TestTemplateReuseBeyondCapacity(t *testing.T) {
	// Capacity 2 blocks: A, B, C, A -> A's reuse distance is 2 >= 2: miss.
	blocks := []int64{10, 20, 30, 10}
	if got := counterMisses(blocks, 2); got != 4 {
		t.Errorf("template misses = %d, want 4 (3 cold + 1 capacity)", got)
	}
	// Capacity 3: distance 2 < 3: hit.
	if got := counterMisses(blocks, 3); got != 3 {
		t.Errorf("template misses = %d, want 3", got)
	}
}

func TestTemplateStackDistanceIgnoresDuplicates(t *testing.T) {
	// A, B, B, B, A: the raw index distance is 3, past a 2-block
	// capacity, but only 1 distinct block lies between, so A hits.
	if got := counterMisses([]int64{1, 2, 2, 2, 1}, 2); got != 2 {
		t.Errorf("stack-distance misses = %d, want 2", got)
	}
}

func TestTemplateCounterMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(300) + 1
		blocks := make([]int64, n)
		for i := range blocks {
			blocks[i] = int64(rng.Intn(40))
		}
		capacity := rng.Intn(20) + 1
		want := naiveStackMisses(blocks, capacity)
		ctr := NewTemplateCounter(capacity)
		for _, b := range blocks {
			ctr.Visit(b)
		}
		if ctr.Misses() != want {
			t.Fatalf("trial %d: counter %d, naive %d (cap %d, blocks %v)",
				trial, ctr.Misses(), want, capacity, blocks)
		}
	}
}

func TestTemplateCounterProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw%30) + 1
		n := rng.Intn(500) + 1
		blocks := make([]int64, n)
		for i := range blocks {
			blocks[i] = int64(rng.Intn(60))
		}
		ctr := NewTemplateCounter(capacity)
		for _, b := range blocks {
			ctr.Visit(b)
		}
		return ctr.Misses() == naiveStackMisses(blocks, capacity) &&
			ctr.Stats().Accesses == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTemplateCounterDistinctBlocks(t *testing.T) {
	ctr := NewTemplateCounter(100)
	for _, b := range []int64{5, 5, 7, 9, 7} {
		ctr.Visit(b)
	}
	if len(ctr.nodes) != 3 {
		t.Errorf("%d nodes, want one for each of 3 distinct blocks", len(ctr.nodes))
	}
}

// TestTemplateCounterDenseGrowthIsGeometric feeds blocks 0, 2, 4, ...,
// whose ids run ahead of the distinct count. The dense index must still
// grow by doubling, not by a fixed step that copies it on every call.
func TestTemplateCounterDenseGrowthIsGeometric(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		ctr := NewTemplateCounter(4096)
		for b := int64(0); b < 1<<21; b += 2 {
			ctr.Visit(b)
		}
	})
	if allocs > 64 {
		t.Errorf("1<<20 stride-2 visits made %.0f allocations, want at most 64", allocs)
	}
}

// Cross-validation: for a fully-associative-like workload (sequential
// traversals), the template counter must match the cache simulator.
func TestTemplateMatchesSimulatorOnTraversals(t *testing.T) {
	cfg := small()
	for _, passes := range []int{1, 3} {
		for _, bytes := range []int64{4096, 65536} {
			sim, err := cache.NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < passes; p++ {
				for off := int64(0); off < bytes; off += 32 {
					sim.Access(uint64(off), 32, false, 1)
				}
			}
			var blocks []int64
			for p := 0; p < passes; p++ {
				for b := int64(0); b < bytes/32; b++ {
					blocks = append(blocks, b)
				}
			}
			got := float64(counterMisses(blocks, cfg.Lines()))
			want := float64(sim.StructStats(1).Misses)
			if !mathx.ApproxEqual(got, want, 0.01) {
				t.Errorf("bytes=%d passes=%d: model %g, simulator %g",
					bytes, passes, got, want)
			}
		}
	}
}

func BenchmarkTemplateCounterLongStream(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([]int64, 1<<16)
	for i := range blocks {
		blocks[i] = int64(rng.Intn(1 << 12))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr := NewTemplateCounter(4096)
		for _, blk := range blocks {
			ctr.Visit(blk)
		}
	}
}
