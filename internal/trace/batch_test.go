package trace

import (
	"math/rand"
	"testing"
)

func TestPackUnpackMeta(t *testing.T) {
	cases := []struct {
		size  uint32
		write bool
		owner int32
	}{
		{0, false, 0},
		{1, true, 1},
		{8, false, 42},
		{MaxBatchRefSize, true, -1},
		{255, true, 1<<31 - 1},
		{7, false, -1 << 31},
	}
	for _, c := range cases {
		size, write, owner := UnpackMeta(PackMeta(c.size, c.write, c.owner))
		if size != c.size || write != c.write || owner != c.owner {
			t.Errorf("round-trip (%d,%v,%d) -> (%d,%v,%d)",
				c.size, c.write, c.owner, size, write, owner)
		}
	}
}

func TestPackMetaOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PackMeta accepted a size above MaxBatchRefSize")
		}
	}()
	PackMeta(MaxBatchRefSize+1, false, 0)
}

func TestRefBatchAppendAtSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b RefBatch
	var refs []Ref
	var owners []int32
	for i := 0; i < 1000; i++ {
		r := Ref{Addr: rng.Uint64(), Size: uint32(rng.Intn(64) + 1), Write: rng.Intn(2) == 0}
		o := int32(rng.Intn(16)) - 1
		refs = append(refs, r)
		owners = append(owners, o)
		b.Append(r, o)
	}
	if b.Len() != len(refs) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(refs))
	}
	for i := range refs {
		r, o := b.At(i)
		if r != refs[i] || o != owners[i] {
			t.Fatalf("At(%d) = %+v/%d, want %+v/%d", i, r, o, refs[i], owners[i])
		}
	}
	view := b.Slice(100, 200)
	if view.Len() != 100 {
		t.Fatalf("Slice len = %d, want 100", view.Len())
	}
	r, o := view.At(0)
	if r != refs[100] || o != owners[100] {
		t.Fatalf("Slice view At(0) = %+v/%d, want %+v/%d", r, o, refs[100], owners[100])
	}
	// An Append on the full-capacity-clamped view must not clobber the
	// parent's element at index 200.
	view.Append(Ref{Addr: 1, Size: 1}, 9)
	if r, _ := b.At(200); r != refs[200] {
		t.Fatal("Append on a Slice view clobbered the parent batch")
	}

	n := 0
	b.Each(func(r Ref, o int32) {
		if r != refs[n] || o != owners[n] {
			t.Fatalf("Each(%d) = %+v/%d, want %+v/%d", n, r, o, refs[n], owners[n])
		}
		n++
	})
	if n != len(refs) {
		t.Fatalf("Each visited %d refs, want %d", n, len(refs))
	}
}

func TestBatchRecorderMatchesRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rec := &Recorder{}
	brec := &BatchRecorder{}
	sink := Tee(rec, brec)
	for i := 0; i < 5000; i++ {
		sink.Access(Ref{Addr: rng.Uint64(), Size: uint32(rng.Intn(32) + 1), Write: i%3 == 0}, int32(i%5))
	}
	if brec.Len() != rec.Len() {
		t.Fatalf("batch recorder holds %d refs, recorder %d", brec.Len(), rec.Len())
	}
	for i := range rec.Refs {
		r, o := brec.Batch.At(i)
		if r != rec.Refs[i] || o != rec.Owners[i] {
			t.Fatalf("ref %d: batch %+v/%d, recorder %+v/%d", i, r, o, rec.Refs[i], rec.Owners[i])
		}
	}
	// Bulk append path.
	brec2 := &BatchRecorder{}
	brec2.AccessBatch(&brec.Batch)
	if brec2.Len() != brec.Len() {
		t.Fatalf("AccessBatch appended %d refs, want %d", brec2.Len(), brec.Len())
	}
}

// TestRefBatchAppendZeroAlloc pins the capacity contract at runtime:
// appends into a batch with free capacity never allocate.
func TestRefBatchAppendZeroAlloc(t *testing.T) {
	b := &RefBatch{Addrs: make([]uint64, 0, 4096), Metas: make([]uint64, 0, 4096)}
	i := 0
	allocs := testing.AllocsPerRun(4096-1, func() {
		b.Append(Ref{Addr: uint64(i), Size: 8, Write: i&1 == 0}, int32(i&3))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Append allocated %.2f times per call on a batch with free capacity", allocs)
	}
}
