package trace

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/metrics"
)

// groupRecorder is a GroupConsumer that never stops. It records the
// stream its groups stand for, expanded as the GroupConsumer contract
// spells out, and how many groups it took.
type groupRecorder struct {
	Recorder
	groups int
}

func (g *groupRecorder) AccessStrided(refs []Ref, owners []int32, strides []int64, steps int) {
	g.groups++
	for k := 0; k < steps; k++ {
		for e := range refs {
			r := refs[e]
			r.Addr += uint64(int64(k) * strides[e])
			g.Access(r, owners[e])
		}
	}
}

func (*groupRecorder) EndPeriod(int64) bool { return false }

// mustPanic runs f and fails unless it panics with a message holding
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one holding %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one holding %q", msg, want)
		}
	}()
	f()
}

// TestMemoryNegativeIndexPanics: index -1 is an offset just below 2^64,
// which must fail the bound check rather than wrap to an address below
// the region, and nothing may be delivered or counted.
func TestMemoryNegativeIndexPanics(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 64)
	if a.Base != 0x1000 {
		t.Fatalf("region at %#x, want 0x1000", a.Base)
	}
	rec := &Recorder{}
	mem := NewMemory(g, rec)
	mustPanic(t, "trace: access A[0x1000,0x1040)", func() { mem.LoadN(a, -1, 8) })
	mustPanic(t, "out of bounds", func() { mem.StoreN(a, -1, 8) })
	mustPanic(t, "out of bounds", func() { mem.Load(a, ^uint64(0), 2) })
	if rec.Len() != 0 || mem.Refs() != 0 {
		t.Errorf("%d delivered and %d counted, want none", rec.Len(), mem.Refs())
	}
}

// stridedCases are groups over two regions: forward, zero and negative
// strides, a write, an element moving by more than a line, and steps of
// 0 and 1.
func stridedCases(a, b Region) []struct {
	group []Strided
	steps int
} {
	return []struct {
		group []Strided
		steps int
	}{
		{[]Strided{{Region: a, Off: 0, Size: 8, Stride: 8}, {Region: b, Off: 8, Size: 8, Stride: 8, Write: true}}, 7},
		{[]Strided{{Region: a, Off: 120, Size: 8, Stride: -16}, {Region: a, Off: 0, Size: 4, Stride: 0}}, 8},
		{[]Strided{{Region: b, Off: 0, Size: 16, Stride: 48}}, 3},
		{[]Strided{{Region: a, Off: 0, Size: 8, Stride: 8}}, 0},
		{[]Strided{{Region: a, Off: 64, Size: 8, Stride: 1 << 40}}, 1},
	}
}

// TestStridedMatchesElementLoop: a group reaches a plain consumer, a
// GroupConsumer and Refs as the element loop's LoadN/StoreN calls do.
func TestStridedMatchesElementLoop(t *testing.T) {
	g := NewRegistry()
	a, b := g.Alloc("A", 128), g.Alloc("B", 160)
	for i, c := range stridedCases(a, b) {
		loop := &Recorder{}
		want := NewMemory(g, loop)
		for k := 0; k < c.steps; k++ {
			for _, s := range c.group {
				off := s.Off + uint64(int64(k)*s.Stride)
				if s.Write {
					want.Store(s.Region, off, s.Size)
				} else {
					want.Load(s.Region, off, s.Size)
				}
			}
		}
		plain, grouped := &Recorder{}, &groupRecorder{}
		for _, sink := range []Consumer{plain, grouped} {
			mem := NewMemory(g, sink)
			mem.Strided(c.group, c.steps)
			if mem.Refs() != want.Refs() {
				t.Errorf("case %d into %T: Refs %d, want %d", i, sink, mem.Refs(), want.Refs())
			}
		}
		if !reflect.DeepEqual(plain.Refs, loop.Refs) || !reflect.DeepEqual(plain.Owners, loop.Owners) {
			t.Errorf("case %d, plain consumer: %v %v, want %v %v", i, plain.Refs, plain.Owners, loop.Refs, loop.Owners)
		}
		if !reflect.DeepEqual(grouped.Refs, loop.Refs) || !reflect.DeepEqual(grouped.Owners, loop.Owners) {
			t.Errorf("case %d, GroupConsumer: %v %v, want %v %v", i, grouped.Refs, grouped.Owners, loop.Refs, loop.Owners)
		}
		if wantGroups := min(c.steps, 1); grouped.groups != wantGroups {
			t.Errorf("case %d: %d groups delivered, want %d", i, grouped.groups, wantGroups)
		}
	}
}

// TestStridedBoundsCheckedFirst: a group whose first or last step
// leaves its region, or whose last offset leaves [0, 2^64), panics
// before any of its references is delivered or counted.
func TestStridedBoundsCheckedFirst(t *testing.T) {
	g := NewRegistry()
	a := g.Alloc("A", 64)
	ok := Strided{Region: a, Size: 8, Stride: 8}
	for _, c := range []struct {
		name  string
		bad   Strided
		steps int
	}{
		{"last step past the end", Strided{Region: a, Off: 8, Size: 8, Stride: 8}, 8},
		{"first step past the end", Strided{Region: a, Off: 64, Size: 8, Stride: -8}, 2},
		{"index -1", Strided{Region: a, Off: ^uint64(7), Size: 8, Stride: 8}, 1},
		{"below the start", Strided{Region: a, Off: 8, Size: 8, Stride: -8}, 3},
		{"span overflows", Strided{Region: a, Off: 0, Size: 8, Stride: 1 << 62}, 5},
		{"negative span overflows", Strided{Region: a, Off: 56, Size: 8, Stride: -1 << 63}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, sink := range []Consumer{&Recorder{}, &groupRecorder{}} {
				mem := NewMemory(g, sink)
				mustPanic(t, "out of bounds", func() { mem.Strided([]Strided{ok, c.bad}, c.steps) })
				if mem.Refs() != 0 {
					t.Errorf("%T: %d references counted, want none", sink, mem.Refs())
				}
			}
		})
	}
}

// TestTakesGroups: only a nil sink and a GroupConsumer let a kernel
// compute after emitting a group, and Instrumented is a GroupConsumer
// exactly when its consumer is one.
func TestTakesGroups(t *testing.T) {
	g := NewRegistry()
	reg := metrics.New()
	for _, c := range []struct {
		sink   Consumer
		groups bool
	}{
		{nil, true},
		{&Recorder{}, false},
		{ConsumerFunc((&groupRecorder{}).Access), false},
		{&groupRecorder{}, true},
		{&stopAfter{stop: 1}, true},
		{Instrumented(&Recorder{}, reg, "i"), false},
		{Instrumented(&groupRecorder{}, reg, "i"), true},
		{Instrumented(&stopAfter{stop: 1}, reg, "i"), true},
	} {
		if got := NewMemory(g, c.sink).TakesGroups(); got != c.groups {
			t.Errorf("%T: TakesGroups %v, want %v", c.sink, got, c.groups)
		}
		if _, ok := c.sink.(GroupConsumer); c.sink != nil && ok != c.groups {
			t.Errorf("%T: GroupConsumer %v, want %v", c.sink, ok, c.groups)
		}
	}
}

// TestInstrumentedTalliesGroups: an instrumented GroupConsumer counts
// a group's references, bytes and writes as the element loop's Access
// calls would, and forwards the group whole and the period boundary.
func TestInstrumentedTalliesGroups(t *testing.T) {
	g := NewRegistry()
	a, b := g.Alloc("A", 128), g.Alloc("B", 160)
	perRef, perGroup := metrics.New(), metrics.New()
	inner := &stopAfter{stop: 1}
	plainSink, groupedSink := Instrumented(&Recorder{}, perRef, "t"), Instrumented(inner, perGroup, "t")
	plain, grouped := NewMemory(g, plainSink), NewMemory(g, groupedSink)
	for _, c := range stridedCases(a, b) {
		plain.Strided(c.group, c.steps)
		grouped.Strided(c.group, c.steps)
	}
	Flush(plainSink)
	Flush(groupedSink)
	got, want := perGroup.Snapshot().Counters, perRef.Snapshot().Counters
	if !reflect.DeepEqual(got, want) || want["t.refs"] != plain.Refs() {
		t.Errorf("group tallies %v, per-reference tallies %v (%d refs)", got, want, plain.Refs())
	}
	if inner.groups != 4 || int64(inner.Len()) != grouped.Refs() {
		t.Errorf("%d groups and %d references forwarded, want 4 and %d", inner.groups, inner.Len(), grouped.Refs())
	}
	grouped.Period()
	if want := []int64{grouped.Refs()}; !slices.Equal(inner.periods, want) {
		t.Errorf("periods forwarded %v, want %v", inner.periods, want)
	}
}
