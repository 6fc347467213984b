package analytic

import (
	"math"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// TestMissFracMatchesReference sweeps the miss model over gap shapes and
// geometries (associativity up to past its 62-hit truncation) and holds
// missFracGap to the reference evaluation bit for bit.
func TestMissFracMatchesReference(t *testing.T) {
	for _, ca := range []int{1, 2, 3, 4, 8, 16, 61, 62, 63, 70} {
		for _, na := range []int{1, 4, 64, 1024} {
			cfg := cache.Config{Associativity: ca, Sets: na, LineSize: 8}
			for _, own := range []int64{0, 1, 3, int64(na) - 1, int64(na), int64(na) + 5, 3*int64(na) + 1} {
				for events := int64(0); events < 40; events += 1 + events/4 {
					for _, lines := range []int64{0, 1, 2, 7, 64, 255, 1000, 4096, 99991} {
						l := lines + events*int64(na)/3
						got := missFracGap(l, events, own, cfg)
						want := rowMissFracGap(l, events, own, cfg)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("CA=%d NA=%d gap (%d lines, %d events) own %d: %v != reference %v",
								ca, na, l, events, own, got, want)
						}
					}
				}
			}
		}
	}
}
