package cache

import "testing"

// TestAutoChoiceCrossover pins that the crossover is gone: on every cache
// geometry, including the core counts where the old heuristic sharded
// long traces, AutoChoice picks the sequential simulator.
func TestAutoChoiceCrossover(t *testing.T) {
	for _, cfg := range []Config{Small, Large, Profile16KB, Profile128KB, Profile1MB, Profile8MB} {
		for _, cpus := range []int{0, 1, 2, 3, 4, 8, 16, 64} {
			if got := AutoChoice(cfg, AutoHint{}, cpus); got != 1 {
				t.Errorf("AutoChoice(%s, %d cpus) = %d workers, want 1", cfg.Name, cpus, got)
			}
		}
	}
}

// TestAutoNeverShardsSmallTier pins the compatibility shim: AutoChoice
// picks the sequential simulator (one worker) on every core count.
func TestAutoNeverShardsSmallTier(t *testing.T) {
	for _, cpus := range []int{1, 2, 4, 8, 64} {
		if got := AutoChoice(Small, AutoHint{}, cpus); got != 1 {
			t.Errorf("AutoChoice(%d cpus) = %d workers, want 1", cpus, got)
		}
	}
}

func TestNewAutoEngineSmallIsSequential(t *testing.T) {
	e, err := NewAutoEngine(Small, AutoHint{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, ok := e.(*Simulator); !ok {
		t.Fatalf("NewAutoEngine built %T, want *Simulator", e)
	}
	if _, err := NewAutoEngine(Config{Name: "bad", Associativity: 0, Sets: 4, LineSize: 16}, AutoHint{}); err == nil {
		t.Error("NewAutoEngine accepted an invalid geometry")
	}
}

// TestAutoEngineStatsMatchExplicit pins that the auto engine replays
// exactly like an explicitly built simulator.
func TestAutoEngineStatsMatchExplicit(t *testing.T) {
	feed := func(e Engine) {
		for i := 0; i < 50_000; i++ {
			e.Access(uint64(i*13)%(1<<20), 8, i%3 == 0, StructID(i%4))
		}
		e.Flush()
	}
	seq := mustSim(t, Small)
	feed(seq)
	auto, err := NewAutoEngine(Small, AutoHint{})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	feed(auto)
	if got, want := auto.TotalStats(), seq.TotalStats(); got != want {
		t.Errorf("auto totals %+v != sequential %+v", got, want)
	}
}
