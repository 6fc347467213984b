package bench

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// TestAnalyticSpeedupAtLargeTier is the engine's headline cost guarantee:
// at the Large verification tier, an analytic solve must beat the
// batched sequential replay of the kernel's recorded trace by a floor.
// CG's floor is 100x against a measured gap of ~1000x. MG and FT get 3x:
// their closed-form grid and permutation phases measure ~40x and ~9x,
// while counting every row and line (the per-row solver) measured 1.2x
// and 0.6x, so a regression to per-row counting fails here. Both sides
// are timed best-of to shed scheduler noise.
func TestAnalyticSpeedupAtLargeTier(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays a 5M-reference trace")
	}
	for _, c := range []struct {
		kernel string
		floor  float64
	}{{"CG", 100}, {"MG", 3}, {"FT", 3}} {
		k, err := kernels.ByName(c.kernel)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := kernels.Affine(k)
		if !ok {
			t.Fatalf("%s lost its affine pattern", c.kernel)
		}
		rec := &trace.Recorder{}
		if _, err := k.Run(rec); err != nil {
			t.Fatal(err)
		}
		cfg := cache.Large
		seq, err := replayCell(c.kernel, cfg, rec, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		an, err := analyticCell(c.kernel, cfg, d, int64(rec.Len()), 20)
		if err != nil {
			t.Fatal(err)
		}
		if an.WallNs <= 0 {
			t.Fatalf("%s analytic solve not timed: %+v", c.kernel, an)
		}
		speed := float64(seq.WallNs) / float64(an.WallNs)
		t.Logf("%s: replay %dns, solve %dns, %.1fx", c.kernel, seq.WallNs, an.WallNs, speed)
		if speed < c.floor {
			t.Errorf("%s analytic solve only %.1fx faster than sequential replay (replay %dns, solve %dns), want >= %gx",
				c.kernel, speed, seq.WallNs, an.WallNs, c.floor)
		}
	}
}
