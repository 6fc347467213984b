package trace

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegistryAllocDisjoint(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 1000)
	b := g.Alloc("B", 500)
	c := g.Alloc("C", 4096)
	regions := []Region{a, b, c}
	for i := range regions {
		for j := range regions {
			if i == j {
				continue
			}
			ri, rj := regions[i], regions[j]
			if ri.Base < rj.Base+rj.Size && rj.Base < ri.Base+ri.Size {
				t.Errorf("regions overlap: %v and %v", ri, rj)
			}
		}
	}
	if a.ID == b.ID || b.ID == c.ID {
		t.Error("region IDs must be unique")
	}
	if a.ID == 0 || b.ID == 0 {
		t.Error("region IDs must not use the unattributed value 0")
	}
}

func TestRegistryAlignment(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 1)
	b := g.Alloc("B", 1)
	if a.Base%regionAlign != 0 || b.Base%regionAlign != 0 {
		t.Errorf("regions not aligned: %v %v", a, b)
	}
	if a.Base == 0 {
		t.Error("first region must not start at address 0")
	}
}

func TestRegistryLookup(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 100)
	b := g.Alloc("B", 100)
	if r, ok := g.Lookup(a.Base + 50); !ok || r.Name != "A" {
		t.Errorf("Lookup inside A = %v,%v", r, ok)
	}
	if r, ok := g.Lookup(b.Base); !ok || r.Name != "B" {
		t.Errorf("Lookup at B base = %v,%v", r, ok)
	}
	if _, ok := g.Lookup(a.Base + 200); ok {
		t.Error("Lookup in the guard gap should fail")
	}
	if _, ok := g.Lookup(0); ok {
		t.Error("Lookup(0) should fail")
	}
}

func TestRegistryLookupProperty(t *testing.T) {
	g := NewRegistry()
	var regs []Region
	sizes := []uint64{1, 7, 4096, 4097, 100000}
	for i, s := range sizes {
		regs = append(regs, g.Alloc(strings.Repeat("x", i+1), s))
	}
	f := func(pick uint8, off uint32) bool {
		r := regs[int(pick)%len(regs)]
		addr := r.Base + uint64(off)%r.Size
		got, ok := g.Lookup(addr)
		return ok && got.ID == r.ID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryEmitsRefs(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 80)
	rec := &Recorder{}
	mem := NewMemory(g, rec)
	mem.LoadN(a, 3, 8)
	mem.StoreN(a, 9, 8)
	mem.Load(a, 0, 4)
	if rec.Len() != 3 || mem.Refs() != 3 {
		t.Fatalf("recorded %d refs, counted %d, want 3", rec.Len(), mem.Refs())
	}
	if rec.Refs[0].Addr != a.Base+24 || rec.Refs[0].Write {
		t.Errorf("LoadN(3): %+v", rec.Refs[0])
	}
	if rec.Refs[1].Addr != a.Base+72 || !rec.Refs[1].Write {
		t.Errorf("StoreN(9): %+v", rec.Refs[1])
	}
	if rec.Owners[0] != int32(a.ID) {
		t.Errorf("owner = %d, want %d", rec.Owners[0], a.ID)
	}
}

func TestMemoryOutOfBoundsPanics(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 16)
	mem := NewMemory(g, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access did not panic")
		}
	}()
	mem.LoadN(a, 2, 8) // offset 16..24 is out of the 16-byte region
}

func TestMemoryNilSinkCountsOnly(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 64)
	mem := NewMemory(g, nil)
	for i := 0; i < 8; i++ {
		mem.LoadN(a, i, 8)
	}
	if mem.Refs() != 8 {
		t.Errorf("Refs = %d, want 8", mem.Refs())
	}
}

// stopAfter is a GroupConsumer that stops at its stop-th boundary and
// records every reference and every period length it is told of.
type stopAfter struct {
	groupRecorder
	stop    int
	periods []int64
}

func (c *stopAfter) EndPeriod(refs int64) bool {
	c.periods = append(c.periods, refs)
	return len(c.periods) >= c.stop
}

func TestMemoryPeriodsStop(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 64)
	period := func(mem *Memory) {
		mem.LoadN(a, 0, 8)
		mem.StoreN(a, 1, 8)
	}
	c := &stopAfter{stop: 2}
	mem := NewMemory(g, c)
	mem.LoadN(a, 2, 8) // prefix
	for range 4 {
		period(mem)
		mem.Period()
	}
	if !mem.TakesGroups() || c.Len() != 5 || mem.Refs() != 9 {
		t.Fatalf("after stopping at boundary 2: takes groups %v, %d delivered, %d refs; want true, 5, 9",
			mem.TakesGroups(), c.Len(), mem.Refs())
	}
	if want := []int64{3, 2, 2, 2}; !slices.Equal(c.periods, want) {
		t.Errorf("periods told %v, want %v", c.periods, want)
	}
	if err := mem.Err(); err != nil {
		t.Errorf("stream ended on a boundary, yet Err: %v", err)
	}

	mem.LoadN(a, 0, 8) // withheld from the stopped consumer
	if err := mem.Err(); !errors.Is(err, ErrPartialPeriod) {
		t.Errorf("reference after the last boundary: Err %v, want ErrPartialPeriod", err)
	}
	mem.LoadN(a, 1, 8)
	mem.LoadN(a, 2, 8)
	mem.Period() // a period of 3 after a steady period of 2
	if err := mem.Err(); !errors.Is(err, ErrPartialPeriod) || len(c.periods) != 4 {
		t.Errorf("uneven period: Err %v and %d periods told, want ErrPartialPeriod and 4", err, len(c.periods))
	}

	rec := &Recorder{} // no EndPeriod: every reference is delivered
	mem = NewMemory(g, rec)
	for range 3 {
		period(mem)
		mem.Period()
	}
	if mem.TakesGroups() || rec.Len() != 6 || mem.Err() != nil {
		t.Errorf("plain consumer: takes groups %v, %d delivered, Err %v", mem.TakesGroups(), rec.Len(), mem.Err())
	}
}

func TestRegionString(t *testing.T) {
	r := Region{Name: "A", Base: 0x1000, Size: 0x100}
	if got := r.String(); got != "A[0x1000,0x1100)" {
		t.Errorf("String = %q", got)
	}
}

func BenchmarkMemoryEmit(b *testing.B) {
	g := NewRegistry()
	a := g.Alloc("A", 1<<20)
	mem := NewMemory(g, ConsumerFunc(func(Ref, int32) {}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem.LoadN(a, i&((1<<17)-1), 8)
	}
}
