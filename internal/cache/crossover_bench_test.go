// BenchmarkEngineCrossover measures the seq/sharded/auto engines against
// each other at three trace-size tiers, making the crossover the auto
// heuristic encodes directly observable:
//
//	go test ./internal/cache/ -run xxx -bench EngineCrossover -benchtime 2s
//
// Each benchmark replays a pre-recorded synthetic stream through
// AccessBatch in DefaultBatch-sized views, so the numbers are the batched
// hot path the experiment drivers and dvf-bench use.
package cache_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/trace"
)

// crossoverStream records a mixed sequential/random stream of n refs with
// a handful of owners — dense enough to exercise hits, sparse enough to
// keep evicting.
func crossoverStream(n int) *trace.BatchRecorder {
	rng := rand.New(rand.NewSource(42))
	br := &trace.BatchRecorder{}
	for i := 0; i < n; i++ {
		var addr uint64
		if i%4 == 0 {
			addr = uint64(rng.Intn(64 << 20))
		} else {
			addr = uint64(i*8) % (16 << 20)
		}
		br.Access(trace.Ref{Addr: addr, Size: 8, Write: i%5 == 0}, int32(i%4))
	}
	return br
}

func BenchmarkEngineCrossover(b *testing.B) {
	tiers := []struct {
		name string
		refs int
	}{
		{"Small", 1 << 16},
		{"Medium", 1 << 20},
		{"Large", 1 << 22},
	}
	engines := []struct {
		name string
		make func(refs int) (cache.Engine, error)
	}{
		{"seq", func(int) (cache.Engine, error) { return cache.NewSimulator(cache.Small) }},
		{"sharded", func(int) (cache.Engine, error) {
			w := runtime.NumCPU()
			if w < 2 {
				w = 2
			}
			return cache.NewShardedSim(cache.Small, w)
		}},
		{"auto", func(refs int) (cache.Engine, error) {
			return cache.NewAutoEngine(cache.Small, cache.AutoHint{Refs: int64(refs)})
		}},
	}
	for _, tier := range tiers {
		whole := crossoverStream(tier.refs).Batch
		for _, eng := range engines {
			b.Run(fmt.Sprintf("%s/%s", tier.name, eng.name), func(b *testing.B) {
				e, err := eng.make(tier.refs)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				b.ReportAllocs()
				b.ResetTimer()
				off := 0
				var view trace.RefBatch
				for done := 0; done < b.N; {
					n := trace.DefaultBatch
					if n > whole.Len()-off {
						n = whole.Len() - off
					}
					if n > b.N-done {
						n = b.N - done
					}
					view = whole.Slice(off, off+n)
					e.AccessBatch(&view)
					done += n
					off += n
					if off >= whole.Len() {
						off = 0
					}
				}
				e.Drain()
			})
		}
	}
}

// BenchmarkSimulatorAccess measures the per-reference Access path that
// dvf-verify drives through a trace.ConsumerFunc, one op per reference, on
// the same mixed stream and owners as the crossover benchmark:
//
//	go test ./internal/cache/ -run xxx -bench SimulatorAccess
func BenchmarkSimulatorAccess(b *testing.B) {
	whole := crossoverStream(1 << 16).Batch
	for _, c := range []struct {
		name string
		cfg  cache.Config
	}{{"small", cache.Small}, {"large", cache.Large}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := cache.NewSimulator(c.cfg)
			if err != nil {
				b.Fatal(err)
			}
			access := func(i int) {
				r, owner := whole.At(i & (1<<16 - 1))
				s.Access(r.Addr, r.Size, r.Write, cache.StructID(owner))
			}
			for i := 0; i < whole.Len(); i++ {
				access(i) // warm: the sets' lazy storage and the stats entries
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access(i)
			}
		})
	}
}
