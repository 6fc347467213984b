// BenchmarkSimulatorAccess measures the per-reference Access path, one
// op per reference:
//
//	go test ./internal/cache/ -run xxx -bench SimulatorAccess
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
func replayStream(n int) *trace.Recorder {
	rng := rand.New(rand.NewSource(42))
	rec := &trace.Recorder{}
	for i := 0; i < n; i++ {
		var addr uint64
		if i%4 == 0 {
			addr = uint64(rng.Intn(64 << 20))
		} else {
			addr = uint64(i*8) % (16 << 20)
		}
		rec.Access(trace.Ref{Addr: addr, Size: 8, Write: i%5 == 0}, int32(i%4))
	}
	return rec
}

// BenchmarkSimulatorAccess measures the Access path that dvf-verify
// drives through Simulator.Consumer, and dvf-trace -replay through
// TraceFile.Replay: small and large replay a synthetic mixed stream, and
// cg/small and cg/large replay the recorded Figure 4 CG kernel stream,
// whose mix of MRU-way hits dominates dvf-verify's replay time.
func BenchmarkSimulatorAccess(b *testing.B) {
	geometries := []struct {
		name string
		cfg  cache.Config
	}{{"small", cache.Small}, {"large", cache.Large}}
	synthetic := replayStream(1 << 16)
	for _, g := range geometries {
		b.Run(g.name, func(b *testing.B) { benchAccess(b, g.cfg, synthetic) })
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
func benchAccess(b *testing.B, cfg cache.Config, stream *trace.Recorder) {
	s, err := cache.NewSimulator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	consumer := s.Consumer()
	for i, r := range stream.Refs {
		consumer.Access(r, stream.Owners[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, j := 0, 0; i < b.N; i++ {
		consumer.Access(stream.Refs[j], stream.Owners[j])
		if j++; j == stream.Len() {
			j = 0
		}
	}
}

// cgStream records the reference stream of the Figure 4 CG kernel.
func cgStream(b *testing.B) *trace.Recorder {
	b.Helper()
	rec := &trace.Recorder{}
	if _, err := kernels.NewCG(500, 10).Run(rec); err != nil {
		b.Fatal(err)
	}
	return rec
}
