// BenchmarkBatchReplay measures the sequential simulator's batched replay
// at three trace-size tiers:
//
//	go test ./internal/cache/ -run xxx -bench BatchReplay -benchtime 2s
//
// Each benchmark replays a pre-recorded synthetic stream through
// AccessBatch in DefaultBatch-sized views, so the numbers are the batched
// hot path dvf-trace -replay and dvf-bench use.
package cache_test

import (
	"math/rand"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// replayStream records a mixed sequential/random stream of n refs with
// a handful of owners — dense enough to exercise hits, sparse enough to
// keep evicting.
func replayStream(n int) *trace.BatchRecorder {
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

func BenchmarkBatchReplay(b *testing.B) {
	tiers := []struct {
		name string
		refs int
	}{
		{"Small", 1 << 16},
		{"Medium", 1 << 20},
		{"Large", 1 << 22},
	}
	for _, tier := range tiers {
		whole := replayStream(tier.refs).Batch
		b.Run(tier.name, func(b *testing.B) {
			s, err := cache.NewSimulator(cache.Small)
			if err != nil {
				b.Fatal(err)
			}
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
				s.AccessBatch(&view)
				done += n
				off += n
				if off >= whole.Len() {
					off = 0
				}
			}
		})
	}
}

// BenchmarkSimulatorAccess measures the per-reference Access path that
// dvf-verify drives through Simulator.Consumer, one op per reference:
// small and large replay the mixed stream of BenchmarkBatchReplay, and
// cg/small and cg/large replay the recorded Figure 4 CG kernel stream,
// whose mix of MRU-way hits dominates dvf-verify's replay time:
//
//	go test ./internal/cache/ -run xxx -bench SimulatorAccess
func BenchmarkSimulatorAccess(b *testing.B) {
	geometries := []struct {
		name string
		cfg  cache.Config
	}{{"small", cache.Small}, {"large", cache.Large}}
	synthetic := replayStream(1 << 16).Batch
	for _, g := range geometries {
		b.Run(g.name, func(b *testing.B) { benchAccess(b, g.cfg, &synthetic) })
	}
	b.Run("cg", func(b *testing.B) {
		cg := cgStream(b)
		for _, g := range geometries {
			b.Run(g.name, func(b *testing.B) { benchAccess(b, g.cfg, cg) })
		}
	})
}

// benchAccess replays stream through Access on a fresh simulator: one
// warm pass, then b.N references, wrapping around the stream.
func benchAccess(b *testing.B, cfg cache.Config, stream *trace.RefBatch) {
	s, err := cache.NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	consumer := s.Consumer()
	for i := 0; i < stream.Len(); i++ {
		consumer.Access(stream.At(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		consumer.Access(stream.At(j))
		if j++; j == stream.Len() {
			j = 0
		}
	}
}

// cgStream records the reference stream of the Figure 4 CG kernel.
func cgStream(b *testing.B) *trace.RefBatch {
	b.Helper()
	br := &trace.BatchRecorder{}
	if _, err := kernels.NewCG(500, 10).Run(br); err != nil {
		b.Fatal(err)
	}
	return &br.Batch
}
