package experiments

import (
	"math"
	"sync"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
)

// TestVerificationAtProfilingSizes re-runs the Figure 4 comparison at the
// Table VI (profiling) input sizes: the models must hold as the working
// sets grow by one to two orders of magnitude, not just at the sizes the
// paper's verification used. The traces are tens of millions of
// references, so the kernels run concurrently and the test is skipped in
// short mode.
func TestVerificationAtProfilingSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling-size traces are large")
	}
	// CG at 800x800 with the template-replay p model doubles the cost for
	// little extra signal (the replay is exact by construction); the
	// closed-form set is representative at scale.
	suite := []kernels.Kernel{
		kernels.NewVM(100000),
		kernels.NewNB(6000),
		kernels.NewMG(64, 1),
		kernels.NewMC(100000),
	}
	type result struct {
		rows []Fig4Row
		err  error
	}
	results := make([]result, len(suite))
	var wg sync.WaitGroup
	for i, k := range suite {
		wg.Add(1)
		go func(i int, k kernels.Kernel) {
			defer wg.Done()
			rows, err := VerifyKernel(k, cache.Small, Env{})
			results[i] = result{rows: rows, err: err}
		}(i, k)
	}
	wg.Wait()
	for _, res := range results {
		if res.err != nil {
			t.Fatal(res.err)
		}
		for _, r := range res.rows {
			if e := math.Abs(r.ErrorPct()); e > 15 {
				t.Errorf("%s/%s at profiling size: %.1f%% error (model %.0f, sim %.0f)",
					r.Kernel, r.Structure, e, r.Model, r.Simulated)
			}
		}
	}
}
