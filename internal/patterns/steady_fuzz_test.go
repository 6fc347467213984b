package patterns

import (
	"slices"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// FuzzSteadyStateVsFull checks RunPeriods against running every period.
// A prefix warms the models, then a body repeats 1-64 times, through a
// cache.Simulator (per-structure counters) and a TemplateCounter
// (visits, misses and evictions). Each input byte
// is one 8-byte reference: element b&31, a write when b&32 is set, owned
// by structure 1+b>>6. The geometry has 1-8 ways, 1-8 sets and 8-32
// byte lines. The committed corpus under testdata/fuzz pins one period,
// a state that does not repeat before the last period, the most periods
// (64), a direct-mapped and a one-set
// geometry, three warm starts where a period's counter deltas, or its
// fill counts, or everything but its dirty bits match the state it
// started from while the next period behaves differently, a stop after
// a period that evicts nothing, a stream of 16 elements through a
// 4-way geometry, and a warm start of four other elements before a
// body of 23 references.
func FuzzSteadyStateVsFull(f *testing.F) {
	f.Add([]byte{}, []byte{0, 1, 2, 3, 36, 5, 6, 7}, uint8(10), uint8(1), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, prefix, body []byte, periods, assocSel, setSel, lineSel uint8) {
		if len(prefix) > 256 {
			prefix = prefix[:256]
		}
		if len(body) > 256 {
			body = body[:256]
		}
		n := 1 + int(periods%64)
		cfg := cache.Config{
			Name:          "fuzz",
			Associativity: 1 + int(assocSel%8),
			Sets:          1 << (setSel % 4),
			LineSize:      8 << (lineSel % 3),
		}

		warmSim := func() *cache.Simulator {
			sim, err := cache.NewSimulator(cfg)
			if err != nil {
				t.Fatalf("geometry %v rejected: %v", cfg, err)
			}
			feedSim(sim, prefix)
			return sim
		}
		sim := warmSim()
		got := RunPeriods(n, sim, func(dst []cache.Stats) []cache.Stats { return simCounts(sim, dst) },
			func() { feedSim(sim, body) })
		full := warmSim()
		for range n {
			feedSim(full, body)
		}
		if want := simCounts(full, nil); !slices.Equal(got, want) {
			t.Fatalf("%v, %d periods: simulator counts %v, full run %v", cfg, n, got, want)
		}

		warmCounter := func() *TemplateCounter {
			ctr := NewTemplateCounter(cfg.Lines())
			feedCounter(ctr, prefix, cfg.LineSize)
			return ctr
		}
		ctr := warmCounter()
		gotCtr := RunPeriods(n, ctr, func(dst []cache.Stats) []cache.Stats { return append(dst, ctr.Stats()) },
			func() { feedCounter(ctr, body, cfg.LineSize) })
		fullCtr := warmCounter()
		for range n {
			feedCounter(fullCtr, body, cfg.LineSize)
		}
		if gotCtr[0] != fullCtr.Stats() {
			t.Fatalf("capacity %d, %d periods: counter %+v, full run %+v",
				cfg.Lines(), n, gotCtr[0], fullCtr.Stats())
		}
	})
}

// feedSim presents each byte of refs as one reference (see
// FuzzSteadyStateVsFull for the encoding).
func feedSim(sim *cache.Simulator, refs []byte) {
	for _, b := range refs {
		sim.Access(uint64(b&31)*8, 8, b&32 != 0, cache.StructID(1+b>>6))
	}
}

// feedCounter visits the line each byte of refs touches.
func feedCounter(ctr *TemplateCounter, refs []byte, lineSize int) {
	for _, b := range refs {
		ctr.Visit(int64(b&31) * 8 / int64(lineSize))
	}
}

// simCounts appends structures 1-4's counters.
func simCounts(sim *cache.Simulator, dst []cache.Stats) []cache.Stats {
	for id := cache.StructID(1); id <= 4; id++ {
		dst = append(dst, sim.StructStats(id))
	}
	return dst
}
