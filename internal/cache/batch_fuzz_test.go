package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/resilience-models/dvf/internal/trace"
)

// FuzzBatchVsAccess generates a random cache geometry, batch-size bound
// and reference stream from the fuzzed inputs, feeds the stream to one
// simulator through AccessBatch in batches of fuzz-chosen sizes and to
// another through per-reference Access, and demands identical counters —
// per structure and in total, both mid-stream while the caches still
// hold live, dirty state and after a final Flush. The seed corpus under
// testdata/fuzz pins the regression cases (a direct-mapped geometry, a
// single set, wide references) that run on every plain `go test`.
func FuzzBatchVsAccess(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(2), uint8(1), uint16(2000))
	f.Add(int64(42), uint8(0), uint8(0), uint8(0), uint8(6), uint16(500)) // direct-mapped, single set
	f.Add(int64(7), uint8(7), uint8(7), uint8(3), uint8(2), uint16(4096)) // largest geometry
	f.Fuzz(func(t *testing.T, seed int64, assocSel, setSel, lineSel, batchSel uint8, n uint16) {
		cfg := Config{
			Name:          "fuzz",
			Associativity: int(assocSel%8) + 1,
			Sets:          1 << (setSel % 8),
			LineSize:      1 << (3 + lineSel%4),
		}
		perRef, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("geometry %v rejected: %v", cfg, err)
		}
		batched, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		var all trace.RefBatch
		for i := 0; i < int(n); i++ {
			all.Append(trace.Ref{
				Addr:  uint64(rng.Intn(1 << 16)),
				Size:  uint32(rng.Intn(64) + 1), // up to several lines, forcing splits
				Write: rng.Intn(3) == 0,
			}, int32(rng.Intn(4)))
		}

		check := func(when string) {
			t.Helper()
			if got, want := batched.PerStructStats(), perRef.PerStructStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v batchSel=%d, %s: per-structure %v != per-reference %v", cfg, batchSel, when, got, want)
			}
			if got, want := batched.TotalStats(), perRef.TotalStats(); got != want {
				t.Fatalf("cfg %+v batchSel=%d, %s: totals %+v != %+v", cfg, batchSel, when, got, want)
			}
		}
		sizes := rand.New(rand.NewSource(seed + 1))
		maxBatch := int(batchSel) + 1
		for lo := 0; lo < all.Len(); {
			hi := lo + 1 + sizes.Intn(maxBatch)
			if hi > all.Len() {
				hi = all.Len()
			}
			view := all.Slice(lo, hi)
			view.Each(func(r trace.Ref, owner int32) {
				perRef.Access(r.Addr, r.Size, r.Write, StructID(owner))
			})
			batched.AccessBatch(&view)
			if mid := all.Len() / 2; lo <= mid && mid < hi {
				check("mid-stream")
			}
			lo = hi
		}
		perRef.Flush()
		batched.Flush()
		check("after Flush")
	})
}
