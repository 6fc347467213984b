package bench

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// TestAnalyticSpeedupAtLargeTier is the engine's headline cost guarantee:
// at the Large verification tier, solving CG analytically must be at
// least 100x faster than the batched sequential replay of its recorded
// trace — the acceptance bar for a microsecond-scale DVF profile. The
// measured gap is ~1000x, so the 100x floor leaves an order of magnitude
// for slow or loaded machines; both sides are timed best-of to shed
// scheduler noise.
func TestAnalyticSpeedupAtLargeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a 5M-reference trace")
	}
	k, err := kernels.ByName("CG")
	if err != nil {
		t.Fatal(err)
	}
	d, ok := kernels.Affine(k)
	if !ok {
		t.Fatal("CG lost its affine pattern")
	}
	rec := &trace.BatchRecorder{}
	if _, err := k.Run(rec); err != nil {
		t.Fatal(err)
	}
	cfg := cache.Large
	seq, err := replayCell("CG", cfg, rec, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analyticCell("CG", cfg, d, int64(rec.Len()), 5)
	if err != nil {
		t.Fatal(err)
	}
	if an.WallNs <= 0 {
		t.Fatalf("analytic solve not timed: %+v", an)
	}
	if speed := float64(seq.WallNs) / float64(an.WallNs); speed < 100 {
		t.Errorf("analytic solve only %.1fx faster than sequential replay (replay %dns, solve %dns), want >= 100x",
			speed, seq.WallNs, an.WallNs)
	}
}
