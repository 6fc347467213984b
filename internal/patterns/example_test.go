package patterns_test

import (
	"fmt"
	"log"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/patterns"
)

// ExampleStreaming estimates the main-memory accesses of the paper's
// Aspen example: 200 8-byte elements accessed at stride 4.
func ExampleStreaming() {
	s := patterns.Streaming{ElemSize: 8, Count: 200, StrideElems: 4, Aligned: true}
	nha, err := s.MemoryAccesses(cache.Small)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("N_ha = %.0f over a %d-byte footprint\n", nha, s.Footprint())
	// Output:
	// N_ha = 50 over a 1600-byte footprint
}

// ExampleRandom models the Barnes-Hut tree of Algorithm 2 with the paper's
// exact parameter tuple (N=1000, E=32, k=200, iter=1000, r=1.0).
func ExampleRandom() {
	r := patterns.Random{N: 1000, ElemSize: 32, K: 200, Iterations: 1000, CacheRatio: 1.0}
	small, err := r.MemoryAccesses(cache.Small)
	if err != nil {
		log.Fatal(err)
	}
	large, err := r.MemoryAccesses(cache.Large)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8KB cache: %.0f accesses; 4MB cache: %.0f (tree resident)\n", small, large)
	// Output:
	// 8KB cache: 149800 accesses; 4MB cache: 500 (tree resident)
}

// ExampleTemplateCounter runs the two-step reuse-distance algorithm on a
// short explicit cache-block template.
func ExampleTemplateCounter() {
	blocks := []int64{0, 1, 2, 0, 1, 2, 9, 0}
	ctr := patterns.NewTemplateCounter(4)
	for _, b := range blocks {
		ctr.Visit(b)
	}
	// 4 cold misses (blocks 0, 1, 2, 9); every reuse distance stays below
	// the 4-block capacity, so the repeats hit.
	fmt.Printf("misses = %d of %d visits\n", ctr.Misses(), len(blocks))
	// Output:
	// misses = 4 of 8 visits
}

// ExampleReuse quantifies how interfering data evicts a reused structure
// (Equations 8-15): a 4KB vector reused 10 times behind a 64KB stream.
func ExampleReuse() {
	r := patterns.Reuse{TargetBytes: 4096, OtherBytes: 64 << 10, Reuses: 10}
	reload, err := r.ReloadPerReuse(cache.Small)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reload per reuse = %.0f of %d blocks\n", reload, 4096/cache.Small.LineSize)
	// Output:
	// reload per reuse = 128 of 128 blocks
}

// ExampleSplitCacheRatios computes the interference split for the Monte
// Carlo kernel's concurrently random structures.
func ExampleSplitCacheRatios() {
	ratios := patterns.SplitCacheRatios(800000, 1440000)
	fmt.Printf("G gets %.3f of the cache, E gets %.3f\n", ratios[0], ratios[1])
	// Output:
	// G gets 0.357 of the cache, E gets 0.643
}
