// Zero-alloc guard for trace-file replay, the path dvf-trace -replay
// takes: once the simulator is warm, TraceV2.Replay into its Consumer
// must not allocate.
package cache_test

import (
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

func TestTraceReplayZeroAlloc(t *testing.T) {
	e, err := cache.NewSimulator(cache.Small)
	if err != nil {
		t.Fatal(err)
	}
	tr := decodeV2(t, replayStream(1<<16))
	tr.Replay(e.Consumer())
	allocs := testing.AllocsPerRun(3, func() { tr.Replay(e.Consumer()) })
	if allocs != 0 {
		t.Fatalf("warm TraceV2.Replay allocated %.3f times per %d-ref trace, want 0", allocs, tr.NumRefs())
	}
}
