package trace_test

import (
	"errors"
	"reflect"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/trace"
)

// FuzzSteadyReplayVsFull drives a Memory that marks period boundaries
// into a cache.Simulator behind its RefConsumer, which stops once its
// state repeats, and the same stream into a simulator behind a plain
// ConsumerFunc, which sees every reference. The stream is a prefix, then
// a body repeated 1-32 times, then the first tail%len(body) references of
// the body once more. Each input byte is one 8-byte reference: element
// b&31, a write when b&32 is set, owned by region 1+b>>6; with hostile
// set, region 4 carries an owner ID outside the simulator's dense range.
// Boundaries fall offset%len(body) references into the body and every
// len(body) references after, so each period is the same rotation of
// the body; bit k%8 of skip drops the k-th boundary, making that period
// twice as long.
//
// Either the Memory reports trace.ErrPartialPeriod, or both simulators
// hold equal counters; when no boundary is dropped and the stream ends
// on a boundary, the error is not allowed. The committed corpus under
// testdata/fuzz pins a stop with extrapolated periods, a rotated
// boundary, a tail after the last boundary, a dropped boundary, the
// hostile owner, a period that fits the cache (a stop because it evicts
// nothing) and a fitting period doubled by a dropped boundary.
func FuzzSteadyReplayVsFull(f *testing.F) {
	f.Add([]byte{0, 1}, []byte{2, 3, 36, 5, 70, 7}, uint8(9), uint8(0), uint8(0), uint8(0), false, uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, prefix, body []byte, periods, offset, skip, tail uint8, hostile bool, assocSel, setSel, lineSel uint8) {
		if len(prefix) > 128 {
			prefix = prefix[:128]
		}
		if len(body) > 128 {
			body = body[:128]
		}
		if len(body) == 0 {
			return
		}
		cfg := cache.Config{
			Name:          "fuzz",
			Associativity: 1 + int(assocSel%8),
			Sets:          1 << (setSel % 4),
			LineSize:      8 << (lineSel % 3),
		}
		stream := append([]byte(nil), prefix...)
		for range 1 + int(periods%32) {
			stream = append(stream, body...)
		}
		stream = append(stream, body[:int(tail)%len(body)]...)
		first := len(prefix) + int(offset)%len(body)
		var bounds []int
		for at, k := first, 0; at <= len(stream); at, k = at+len(body), k+1 {
			if skip&(1<<(k%8)) == 0 {
				bounds = append(bounds, at)
			}
		}

		reg := trace.NewRegistry()
		var regions [4]trace.Region
		for i := range regions {
			regions[i] = reg.Alloc("s", 32*8)
		}
		if hostile {
			regions[3].ID = 1 << 20
		}
		run := func(sink trace.Consumer) *trace.Memory {
			mem := trace.NewMemory(reg, sink)
			next := 0
			for i := 0; i <= len(stream); i++ {
				if next < len(bounds) && bounds[next] == i {
					next++
					mem.Period()
				}
				if i < len(stream) {
					b := stream[i]
					if b&32 != 0 {
						mem.StoreN(regions[b>>6], int(b&31), 8)
					} else {
						mem.LoadN(regions[b>>6], int(b&31), 8)
					}
				}
			}
			return mem
		}
		newSim := func() *cache.Simulator {
			sim, err := cache.NewSimulator(cfg)
			if err != nil {
				t.Fatalf("geometry %v rejected: %v", cfg, err)
			}
			return sim
		}
		steady, full := newSim(), newSim()
		mem := run(steady.Consumer())
		plain := full.Consumer()
		run(trace.ConsumerFunc(plain.Access))

		if mem.Refs() != int64(len(stream)) {
			t.Fatalf("Refs %d, stream of %d", mem.Refs(), len(stream))
		}
		even := len(bounds) == (len(stream)-first)/len(body)+1 // no boundary dropped
		clean := even && bounds[len(bounds)-1] == len(stream)
		if err := mem.Err(); err != nil {
			if !errors.Is(err, trace.ErrPartialPeriod) {
				t.Fatalf("Err: %v, want trace.ErrPartialPeriod", err)
			}
			if clean {
				t.Fatalf("whole periods only, yet Err: %v", err)
			}
			return
		}
		if got, want := steady.PerStructStats(), full.PerStructStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: PerStructStats steady-state %v, full %v", cfg, got, want)
		}
		if got, want := steady.TotalStats(), full.TotalStats(); got != want {
			t.Fatalf("%v: TotalStats steady-state %+v, full %+v", cfg, got, want)
		}
	})
}
