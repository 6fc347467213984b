package patterns

import "testing"

// FuzzTemplateCounterVsNaive checks the LRU-list TemplateCounter against
// the brute-force oracles in both distance modes. Each input byte picks
// one of 64 block ids around base (base XOR the byte's low six bits), so
// ids near math.MaxInt64 and math.MinInt64 are as easy to reach as small
// ones; capacity is folded into [-259, 259], which covers the all-miss
// capacities (zero and below), capacity 1, and capacities above the
// template's distinct block count. The committed corpus under
// testdata/fuzz pins those corners, plus a base near 4096 that sends the
// first blocks to the counter's sparse index and later moves them into
// its growing dense one.
func FuzzTemplateCounterVsNaive(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2}, 0, false, int64(0))
	f.Add([]byte{0, 1, 0, 2, 0, 1}, 1, true, int64(0))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 3, false, int64(1<<62))
	f.Fuzz(func(t *testing.T, data []byte, capacity int, raw bool, base int64) {
		// The stack oracle is quadratic in the template length.
		if len(data) > 512 {
			data = data[:512]
		}
		capacity %= 260
		blocks := make([]int64, len(data))
		distinct := map[int64]bool{}
		for i, b := range data {
			blocks[i] = base ^ int64(b&63)
			distinct[blocks[i]] = true
		}
		want := naiveStackMisses(blocks, capacity)
		if raw {
			want = naiveRawMisses(blocks, capacity)
		}
		ctr := NewTemplateCounter(capacity, raw)
		var visitMisses int64
		for _, b := range blocks {
			if ctr.Visit(b) {
				visitMisses++
			}
		}
		if ctr.Misses() != want || visitMisses != want {
			t.Fatalf("raw=%v capacity=%d: Misses %d, Visit reported %d, oracle %d (blocks %v)",
				raw, capacity, ctr.Misses(), visitMisses, want, blocks)
		}
		if ctr.Visits() != int64(len(blocks)) || ctr.DistinctBlocks() != len(distinct) {
			t.Fatalf("Visits %d / DistinctBlocks %d, want %d / %d",
				ctr.Visits(), ctr.DistinctBlocks(), len(blocks), len(distinct))
		}
	})
}
