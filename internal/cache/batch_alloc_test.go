// Zero-alloc guard for the batched replay hot path, the runtime
// counterpart of the static hotalloc proof (`make lint`): once the
// simulator is warm, AccessBatch must not allocate.
package cache_test

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/trace"
)

func TestBatchReplayZeroAllocSequential(t *testing.T) {
	e, err := cache.NewSimulator(cache.Small)
	if err != nil {
		t.Fatal(err)
	}
	whole := replayStream(1 << 18).Batch
	warm := whole.Slice(0, whole.Len())
	e.AccessBatch(&warm)

	off := 0
	var view trace.RefBatch
	allocs := testing.AllocsPerRun(63, func() {
		hi := off + trace.DefaultBatch
		if hi > whole.Len() {
			off, hi = 0, trace.DefaultBatch
		}
		view = whole.Slice(off, hi)
		e.AccessBatch(&view)
		off = hi
	})
	if allocs != 0 {
		t.Fatalf("warm sequential AccessBatch allocated %.3f times per %d-ref batch, want 0",
			allocs, trace.DefaultBatch)
	}
}
