package cache

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator(%v): %v", cfg, err)
	}
	return s
}

func tiny() Config {
	return Config{Name: "tiny", Associativity: 2, Sets: 4, LineSize: 16}
}

func TestConfigCapacity(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Small, 8 << 10},
		{Large, 4 << 20},
		{Profile16KB, 16 << 10},
		{Profile128KB, 128 << 10},
		{Profile1MB, 1 << 20},
		{Profile8MB, 8 << 20},
	}
	for _, c := range cases {
		if got := c.cfg.Capacity(); got != c.want {
			t.Errorf("%s capacity = %d, want %d", c.cfg.Name, got, c.want)
		}
	}
}

// TestTableIVConfigs pins the published CA/NA/CL values where the paper's
// table is internally consistent, and the corrected geometries elsewhere.
func TestTableIVConfigs(t *testing.T) {
	if Small.Associativity != 4 || Small.Sets != 64 || Small.LineSize != 32 {
		t.Errorf("Small config drifted from Table IV: %+v", Small)
	}
	if Large.Associativity != 16 || Large.Sets != 4096 || Large.LineSize != 64 {
		t.Errorf("Large config drifted from Table IV: %+v", Large)
	}
	if Profile16KB.Associativity != 2 || Profile16KB.Sets != 1024 || Profile16KB.LineSize != 8 {
		t.Errorf("16KB config drifted from Table IV: %+v", Profile16KB)
	}
	if Profile128KB.Associativity != 4 || Profile128KB.Sets != 2048 || Profile128KB.LineSize != 16 {
		t.Errorf("128KB config drifted from Table IV: %+v", Profile128KB)
	}
	// Corrected rows must still use the paper's CL and hit the labelled size.
	if Profile1MB.LineSize != 32 || Profile1MB.Capacity() != 1<<20 {
		t.Errorf("1MB config wrong: %+v", Profile1MB)
	}
	if Profile8MB.LineSize != 64 || Profile8MB.Capacity() != 8<<20 {
		t.Errorf("8MB config wrong: %+v", Profile8MB)
	}
	for _, cfg := range append(ProfilingConfigs(), VerificationConfigs()...) {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Table IV config invalid: %v", err)
		}
	}
	profs := ProfilingConfigs()
	for i := 1; i < len(profs); i++ {
		if profs[i].Capacity() <= profs[i-1].Capacity() {
			t.Error("profiling configs not in ascending capacity order")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Associativity: 0, Sets: 4, LineSize: 16},
		{Associativity: 2, Sets: 0, LineSize: 16},
		{Associativity: 2, Sets: 4, LineSize: 0},
		{Associativity: 2, Sets: 4, LineSize: 24},
		{Associativity: 2, Sets: 3, LineSize: 16},
		// Past the line bound: each factor alone, their product, and
		// factors whose product would overflow int.
		{Associativity: MaxLines + 1, Sets: 1, LineSize: 16},
		{Associativity: 1, Sets: MaxLines * 2, LineSize: 16},
		{Associativity: 2, Sets: MaxLines, LineSize: 16},
		{Associativity: 32, Sets: MaxLines / 16, LineSize: 64},
		{Associativity: math.MaxInt, Sets: math.MaxInt, LineSize: 64},
		{Associativity: MaxLines, Sets: MaxLines, LineSize: 64},
		{Associativity: 1, Sets: 1 << 30, LineSize: 64},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		if _, err := NewSimulator(cfg); err == nil {
			t.Errorf("NewSimulator(%+v) accepted invalid config", cfg)
		}
	}
	// The bound itself is accepted, in either factor.
	for _, cfg := range []Config{
		{Associativity: MaxLines, Sets: 1, LineSize: 8},
		{Associativity: 1, Sets: MaxLines, LineSize: 8},
		{Associativity: 16, Sets: MaxLines / 16, LineSize: 64},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil at the %d-line bound", cfg, err, MaxLines)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	s := mustSim(t, tiny())
	s.Access(0x100, 4, false, 1)
	s.Access(0x104, 4, false, 1) // same 16 B line
	st := s.StructStats(1)
	if st.Misses != 1 || st.Hits != 1 || st.Accesses != 2 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit", st)
	}
}

func TestStraddlingAccessSplits(t *testing.T) {
	s := mustSim(t, tiny())
	// 8 bytes starting 4 bytes before a line boundary touches 2 lines.
	s.Access(0x10C, 8, false, 1)
	st := s.StructStats(1)
	if st.Accesses != 2 || st.Misses != 2 {
		t.Errorf("straddling access: %+v, want 2 accesses, 2 misses", st)
	}
}

func TestZeroSizeAccessTreatedAsOneByte(t *testing.T) {
	s := mustSim(t, tiny())
	s.Access(0x100, 0, false, 1)
	if st := s.StructStats(1); st.Accesses != 1 {
		t.Errorf("zero-size access recorded %d accesses, want 1", st.Accesses)
	}
}

func TestLRUReplacementOrder(t *testing.T) {
	cfg := tiny() // 2-way, 4 sets, 16 B lines: set stride is 64 B
	s := mustSim(t, cfg)
	// Three blocks mapping to set 0: addresses 0, 64, 128.
	s.Access(0, 1, false, 1)   // miss, set0 = [0]
	s.Access(64, 1, false, 1)  // miss, set0 = [64, 0]
	s.Access(0, 1, false, 1)   // hit,  set0 = [0, 64]
	s.Access(128, 1, false, 1) // miss, evicts 64 (LRU), set0 = [128, 0]
	s.Access(0, 1, false, 1)   // hit
	s.Access(64, 1, false, 1)  // miss: 64 was evicted
	st := s.StructStats(1)
	if st.Misses != 4 || st.Hits != 2 {
		t.Errorf("LRU order wrong: %+v, want 4 misses / 2 hits", st)
	}
}

func TestWritebackOnlyWhenDirty(t *testing.T) {
	cfg := tiny()
	s := mustSim(t, cfg)
	// Fill set 0 with clean lines, then overflow: no writebacks.
	s.Access(0, 1, false, 1)
	s.Access(64, 1, false, 1)
	s.Access(128, 1, false, 1) // evicts clean line
	if st := s.StructStats(1); st.Writebacks != 0 {
		t.Errorf("clean eviction produced %d writebacks", st.Writebacks)
	}
	s.Reset()
	s.Access(0, 1, true, 1) // dirty
	s.Access(64, 1, false, 1)
	s.Access(128, 1, false, 1) // evicts block 64? LRU is block 0 (dirty)
	// MRU order after the first two: [64, 0]; miss evicts 0 which is dirty.
	if st := s.StructStats(1); st.Writebacks != 1 {
		t.Errorf("dirty eviction produced %d writebacks, want 1", st.Writebacks)
	}
}

func TestWritebackAttributedToOwner(t *testing.T) {
	s := mustSim(t, tiny())
	s.Access(0, 1, true, 7)   // structure 7 dirties a line in set 0
	s.Access(64, 1, false, 3) // structure 3 shares the set
	s.Access(128, 1, false, 3)
	// The eviction victim is structure 7's dirty line.
	if wb := s.StructStats(7).Writebacks; wb != 1 {
		t.Errorf("structure 7 writebacks = %d, want 1", wb)
	}
	if wb := s.StructStats(3).Writebacks; wb != 0 {
		t.Errorf("structure 3 writebacks = %d, want 0", wb)
	}
}

func TestFlushWritesBackDirtyLines(t *testing.T) {
	s := mustSim(t, tiny())
	s.Access(0, 16, true, 2)
	s.Access(16, 16, false, 2)
	s.Flush()
	st := s.StructStats(2)
	if st.Writebacks != 1 {
		t.Errorf("flush writebacks = %d, want 1 (only the dirty line)", st.Writebacks)
	}
	// After flush everything misses again.
	s.Access(0, 1, false, 2)
	if st = s.StructStats(2); st.Misses != 3 {
		t.Errorf("post-flush access should miss: %+v", st)
	}
}

func TestResetClearsEverything(t *testing.T) {
	s := mustSim(t, tiny())
	s.Access(0, 1, true, 1)
	s.Reset()
	if st := s.StructStats(1); st != (Stats{}) {
		t.Errorf("stats after reset = %+v, want zero", st)
	}
	if st := s.TotalStats(); st != (Stats{}) {
		t.Errorf("total after reset = %+v, want zero", st)
	}
}

func TestStreamingCompulsoryMisses(t *testing.T) {
	// A pure sequential sweep of a structure larger than the cache must
	// produce exactly ceil(bytes/CL) misses (all compulsory) on first touch.
	cfg := Small
	s := mustSim(t, cfg)
	const bytes = 64 << 10 // 64 KB > 8 KB cache
	for off := 0; off < bytes; off += 8 {
		s.Access(uint64(off), 8, false, 1)
	}
	want := int64(bytes / cfg.LineSize)
	if st := s.StructStats(1); st.Misses != want {
		t.Errorf("streaming misses = %d, want %d", st.Misses, want)
	}
}

func TestWorkingSetSmallerThanCacheFullyHits(t *testing.T) {
	cfg := Small // 8 KB
	s := mustSim(t, cfg)
	const bytes = 4 << 10
	touch := func() {
		for off := 0; off < bytes; off += 8 {
			s.Access(uint64(off), 8, false, 1)
		}
	}
	touch() // cold
	cold := s.StructStats(1).Misses
	touch() // warm: everything resident
	if st := s.StructStats(1); st.Misses != cold {
		t.Errorf("second sweep of resident set missed %d times", st.Misses-cold)
	}
}

func TestTotalEqualsSumOfStructs(t *testing.T) {
	s := mustSim(t, tiny())
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		id := StructID(rng.Intn(4) + 1)
		s.Access(uint64(rng.Intn(1<<12)), 8, rng.Intn(2) == 0, id)
	}
	s.Flush()
	var agg Stats
	for id := StructID(1); id <= 4; id++ {
		agg = agg.add(s.StructStats(id))
	}
	if agg != s.TotalStats() {
		t.Errorf("aggregate %+v != total %+v", agg, s.TotalStats())
	}
}

// Property: for any access sequence, hits + misses == accesses and the
// number of resident blocks never exceeds the cache's line count.
func TestAccountingInvariantsProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		s, err := NewSimulator(tiny())
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%2000); i++ {
			s.Access(uint64(rng.Intn(1<<13)), uint32(rng.Intn(16)+1), rng.Intn(3) == 0, StructID(rng.Intn(3)+1))
		}
		tot := s.TotalStats()
		if tot.Hits+tot.Misses != tot.Accesses {
			return false
		}
		resident := 0
		for id := StructID(1); id <= 3; id++ {
			resident += s.ResidentBlocks(id)
		}
		return resident <= s.Config().Lines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: writebacks never exceed the number of write-touched lines
// (each dirty line can be written back once per dirtying).
func TestWritebackBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := NewSimulator(tiny())
		rng := rand.New(rand.NewSource(seed))
		writes := int64(0)
		for i := 0; i < 1000; i++ {
			w := rng.Intn(2) == 0
			if w {
				writes++
			}
			s.Access(uint64(rng.Intn(1<<12)), 1, w, 1)
		}
		s.Flush()
		return s.StructStats(1).Writebacks <= writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMissRatio(t *testing.T) {
	st := Stats{Accesses: 10, Misses: 4}
	if st.MissRatio() != 0.4 {
		t.Errorf("MissRatio = %g, want 0.4", st.MissRatio())
	}
	if (Stats{}).MissRatio() != 0 {
		t.Error("empty MissRatio should be 0")
	}
}

func TestMemoryAccesses(t *testing.T) {
	st := Stats{Misses: 7, Writebacks: 3}
	if st.MemoryAccesses() != 10 {
		t.Errorf("MemoryAccesses = %d, want 10", st.MemoryAccesses())
	}
}

func TestReportContainsLabels(t *testing.T) {
	s := mustSim(t, tiny())
	s.Label(1, "A")
	s.Access(0, 1, false, 1)
	r := s.Report()
	if !strings.Contains(r, "A") || !strings.Contains(r, "TOTAL") {
		t.Errorf("report missing labels:\n%s", r)
	}
}

func TestConflictMissesWithinCapacity(t *testing.T) {
	// Two blocks that alias to the same set thrash a direct-mapped cache
	// even though total footprint is far below capacity.
	cfg := Config{Name: "dm", Associativity: 1, Sets: 4, LineSize: 16}
	s := mustSim(t, cfg)
	for i := 0; i < 10; i++ {
		s.Access(0, 1, false, 1)  // set 0
		s.Access(64, 1, false, 1) // set 0 again
	}
	st := s.StructStats(1)
	if st.Hits != 0 || st.Misses != 20 {
		t.Errorf("direct-mapped thrash: %+v, want 20 misses 0 hits", st)
	}
}

func BenchmarkSimulatorSequential(b *testing.B) {
	s, _ := NewSimulator(Large)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(uint64(i*8), 8, false, 1)
	}
}

func BenchmarkSimulatorRandom(b *testing.B) {
	s, _ := NewSimulator(Large)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(64 << 20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Access(addrs[i&(len(addrs)-1)], 8, false, 1)
	}
}

// TestUntracedAccessZeroAlloc guards the tracing acceptance criterion:
// with no tracer attached (the shipped default), the replay hot path —
// Access including its throttled progress-sampling branch — must not
// allocate. A regression here would slow every untraced replay.
func TestUntracedAccessZeroAlloc(t *testing.T) {
	s := mustSim(t, Large)
	s.Trace(nil) // explicit nil recorder is the same as never tracing
	// Warm every set the measured loop will touch, so it measures the
	// steady state: MRU-way hits and in-set lookups alike.
	const lines = 4096
	for i := uint64(0); i < lines; i++ {
		s.Access(i*64, 8, false, 1)
	}
	var i uint64
	allocs := testing.AllocsPerRun(1000, func() {
		s.Access(i%lines*64, 8, i%3 == 0, 1)
		i++
	})
	if allocs != 0 {
		t.Errorf("untraced Access allocates %.1f per call, want 0", allocs)
	}
}

// TestSameStateTracksContents pins what SaveState and SameState compare:
// tags, owners, dirty bits and fill counts, but not the counters.
func TestSameStateTracksContents(t *testing.T) {
	s := mustSim(t, tiny())
	if s.SameState() {
		t.Fatal("SameState true before any SaveState")
	}
	s.Access(0, 8, false, 1)
	s.SaveState()
	if !s.SameState() {
		t.Fatal("SameState false right after SaveState")
	}
	s.Access(0, 8, false, 1) // a hit: counters move, contents do not
	if !s.SameState() {
		t.Error("a read hit on the MRU line changed the state")
	}
	for _, c := range []struct {
		name   string
		change func()
	}{
		{"dirty bit", func() { s.Access(0, 8, true, 1) }},
		{"owner", func() { s.Reset(); s.Access(0, 8, false, 2) }},
		{"tag", func() { s.Reset(); s.Access(64, 8, false, 1) }},
		{"fill count", func() { s.Access(128, 8, false, 1) }},
	} {
		s.Reset()
		s.Access(0, 8, false, 1)
		s.SaveState()
		c.change()
		if s.SameState() {
			t.Errorf("changing the %s left SameState true", c.name)
		}
	}
	// Only valid lines are state: a flush empties every set but leaves
	// the old lines in the free ways.
	s.Reset()
	s.SaveState()
	s.Access(0, 8, true, 1)
	s.Flush()
	if !s.SameState() {
		t.Error("a flushed cache differs from the empty one it started as")
	}
}

// TestSaveStateAllocatesOnce guards the per-period cost of steady-state
// extrapolation: once a save has sized the snapshot for the lines the
// cache holds, later saves and comparisons of a cache holding no more
// lines reuse it.
func TestSaveStateAllocatesOnce(t *testing.T) {
	s := mustSim(t, Large)
	const lines = 4096 // one line in every set
	for i := uint64(0); i < lines; i++ {
		s.Access(i*64, 8, false, 1)
	}
	s.SaveState()
	var i uint64
	allocs := testing.AllocsPerRun(20, func() {
		s.Access(i%lines*64, 8, true, 1)
		i++
		s.SaveState()
		_ = s.SameState()
	})
	if allocs != 0 {
		t.Errorf("SaveState/SameState allocate %.1f per period after the first save, want 0", allocs)
	}
}
