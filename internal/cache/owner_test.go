package cache

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/resilience-models/dvf/internal/trace"
)

// hostileOwners straddles every boundary of the simulator's per-structure
// counters: the dense range's ends, the first IDs past its ceiling, and
// the negative and extreme IDs a hand-written or hostile trace file can
// carry.
var hostileOwners = []StructID{
	math.MinInt32, -denseStructIDs, -1, Unattributed, 1,
	denseStructIDs - 1, denseStructIDs, denseStructIDs + 1, math.MaxInt32,
}

// TestHostileOwnersMatchMapOnlyReference drives one stream over the
// hostile owners through Access, and through a v2 trace file's Replay
// (owners a trace file can carry), and requires each to agree with the
// map-only reference cache on every structure's Stats, the totals and
// the rendered report.
func TestHostileOwnersMatchMapOnlyReference(t *testing.T) {
	cfg := tiny()
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	w := trace.NewWriterV2(&buf, trace.NewRegistry())
	perRef := mustSim(t, cfg)
	oracle := newRefCache(cfg)
	for i := 0; i < 4000; i++ {
		addr := uint64(rng.Intn(1 << 10))
		size := uint32(rng.Intn(24) + 1)
		write := rng.Intn(3) == 0
		owner := hostileOwners[rng.Intn(len(hostileOwners))]
		w.Access(trace.Ref{Addr: addr, Size: size, Write: write}, int32(owner))
		perRef.Access(addr, size, write, owner)
		oracle.access(addr, size, write, owner)
	}
	oracle.flush()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.DecodeV2(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	replayed := mustSim(t, cfg)
	tr.Replay(replayed.Consumer())
	want := map[StructID]Stats{}
	var wantTotal Stats
	for id, st := range oracle.stats {
		want[id] = *st
		wantTotal = wantTotal.add(*st)
	}
	names := map[StructID]string{-1: "neg", math.MaxInt32: "max"}
	wantReport := renderReport(cfg, want, wantTotal, names)

	for _, e := range []struct {
		name string
		eng  *Simulator
	}{{"Access", perRef}, {"Replay", replayed}} {
		e.eng.Flush()
		for id, name := range names {
			e.eng.Label(id, name)
		}
		if got := e.eng.PerStructStats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: PerStructStats\n got %v\nwant %v", e.name, got, want)
		}
		for _, id := range hostileOwners {
			if got := e.eng.StructStats(id); got != want[id] {
				t.Errorf("%s: StructStats(%d) = %+v, want %+v", e.name, id, got, want[id])
			}
		}
		if got := e.eng.TotalStats(); got != wantTotal {
			t.Errorf("%s: TotalStats = %+v, want %+v", e.name, got, wantTotal)
		}
		if got := e.eng.Report(); got != wantReport {
			t.Errorf("%s: report\n%s\nwant\n%s", e.name, got, wantReport)
		}
	}

	perRef.Reset()
	if got := perRef.PerStructStats(); len(got) != 0 {
		t.Errorf("PerStructStats after Reset = %v, want empty", got)
	}
	if got := perRef.StructStats(math.MaxInt32); got != (Stats{}) {
		t.Errorf("StructStats(MaxInt32) after Reset = %+v, want zero", got)
	}
}

// TestHostileOwnerAllocatesIndependentlyOfID: the first sight of an owner
// costs a small fixed allocation whatever its value, so a trace cannot
// make the simulator allocate in proportion to an ID. TotalAlloc is
// process-wide, and the runtime or another goroutine can allocate while
// the loop runs; such allocations only add, so the test measures several
// fresh simulators on one P and bounds the least growth.
func TestHostileOwnerAllocatesIndependentlyOfID(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	for try := 0; try < 5; try++ {
		s := mustSim(t, tiny())
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range hostileOwners {
			s.Access(uint64(id)*16, 8, false, id)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("first sight of %d owners allocated at least %d bytes, want at most 4096", len(hostileOwners), least)
	}
}
