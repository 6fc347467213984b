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

// naiveRawMisses is the raw-index-distance counterpart of
// naiveStackMisses: a reuse misses when at least capacity template entries
// lie between it and the block's previous visit.
func naiveRawMisses(blocks []int64, capacity int) int64 {
	var misses int64
	last := map[int64]int{}
	for i, b := range blocks {
		prev, seen := last[b]
		if !seen || i-prev-1 >= capacity {
			misses++
		}
		last[b] = i
	}
	return misses
}

func TestTemplateFirstTouchOnly(t *testing.T) {
	tpl := Template{Blocks: []int64{0, 1, 2, 3, 2, 1, 0, 3}}
	// 4 distinct blocks, all reuses within the 8 KB cache's 256 lines.
	if got := mustAccesses(t, tpl, small()); got != 4 {
		t.Errorf("template misses = %g, want 4", got)
	}
}

func TestTemplateReuseBeyondCapacity(t *testing.T) {
	// Capacity 2 blocks: A, B, C, A -> A's reuse distance is 2 >= 2: miss.
	tpl := Template{Blocks: []int64{10, 20, 30, 10}, CapacityBlocks: 2}
	if got := mustAccesses(t, tpl, small()); got != 4 {
		t.Errorf("template misses = %g, want 4 (3 cold + 1 capacity)", got)
	}
	// Capacity 3: distance 2 < 3: hit.
	tpl.CapacityBlocks = 3
	if got := mustAccesses(t, tpl, small()); got != 3 {
		t.Errorf("template misses = %g, want 3", got)
	}
}

func TestTemplateStackDistanceIgnoresDuplicates(t *testing.T) {
	// A, B, B, B, A: raw distance is 3 but only 1 distinct block between.
	blocks := []int64{1, 2, 2, 2, 1}
	stack := Template{Blocks: blocks, CapacityBlocks: 2}
	if got := mustAccesses(t, stack, small()); got != 2 {
		t.Errorf("stack-distance misses = %g, want 2", got)
	}
	raw := Template{Blocks: blocks, CapacityBlocks: 2, DistanceRaw: true}
	if got := mustAccesses(t, raw, small()); got != 3 {
		t.Errorf("raw-distance misses = %g, want 3", got)
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
		ctr := NewTemplateCounter(capacity, false)
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
		ctr := NewTemplateCounter(capacity, false)
		for _, b := range blocks {
			ctr.Visit(b)
		}
		return ctr.Misses() == naiveStackMisses(blocks, capacity) &&
			ctr.Visits() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTemplateCounterDistinctBlocks(t *testing.T) {
	ctr := NewTemplateCounter(100, false)
	for _, b := range []int64{5, 5, 7, 9, 7} {
		ctr.Visit(b)
	}
	if ctr.DistinctBlocks() != 3 {
		t.Errorf("DistinctBlocks = %d, want 3", ctr.DistinctBlocks())
	}
}

func TestTemplateNegativeBlockRejected(t *testing.T) {
	tpl := Template{Blocks: []int64{0, -1}}
	if _, err := tpl.MemoryAccesses(small()); err == nil {
		t.Error("negative block id accepted")
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
			tpl := Template{}
			for p := 0; p < passes; p++ {
				for b := int64(0); b < bytes/32; b++ {
					tpl.Blocks = append(tpl.Blocks, b)
				}
			}
			got, err := tpl.MemoryAccesses(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := float64(sim.StructStats(1).Misses)
			if !mathx.ApproxEqual(got, want, 0.01) {
				t.Errorf("bytes=%d passes=%d: model %g, simulator %g",
					bytes, passes, got, want)
			}
		}
	}
}

func TestTemplatePatternName(t *testing.T) {
	if (Template{}).PatternName() != "template" {
		t.Error("wrong pattern name")
	}
	tpl := Template{FootprintBytes: 999}
	if tpl.Footprint() != 999 {
		t.Error("footprint not reported")
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
		ctr := NewTemplateCounter(4096, false)
		for _, blk := range blocks {
			ctr.Visit(blk)
		}
	}
}
