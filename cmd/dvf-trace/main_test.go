package main

import (
	"path/filepath"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/trace"
)

// TestReplayMatchesLiveRun records a kernel's trace to a file, replays
// the file on the Small cache, and requires the replay to tally every
// record and to end with the counters of a live run into the simulator.
func TestReplayMatchesLiveRun(t *testing.T) {
	for _, code := range []string{"VM", "CG"} {
		t.Run(code, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), code+".trace")
			if err := doRecord(code, path, nil, nil); err != nil {
				t.Fatal(err)
			}
			reg := metrics.New()
			if err := doReplay(path, cache.Small, reg, nil); err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()

			tf, err := trace.OpenTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			refs := tf.NumRefs()
			if err := tf.Close(); err != nil {
				t.Fatal(err)
			}
			if got := snap.Counters["trace.replay.refs"]; got != refs {
				t.Errorf("trace.replay.refs = %d, want the file's %d records", got, refs)
			}

			k, err := kernels.ByName(code)
			if err != nil {
				t.Fatal(err)
			}
			live, err := cache.NewSimulator(cache.Small)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := k.Run(live.Consumer()); err != nil {
				t.Fatal(err)
			}
			st := live.TotalStats()
			for name, want := range map[string]int64{
				"accesses":   st.Accesses,
				"hits":       st.Hits,
				"misses":     st.Misses,
				"evictions":  st.Evictions,
				"writebacks": st.Writebacks,
			} {
				if got := snap.Gauges["cache.replay."+name]; got != want {
					t.Errorf("cache.replay.%s = %d, live run %d", name, got, want)
				}
			}
		})
	}
}
