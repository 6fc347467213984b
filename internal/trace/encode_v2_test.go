package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
		{MaxRefSize, true, -1},
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
			t.Fatal("PackMeta accepted a size above MaxRefSize")
		}
	}()
	PackMeta(MaxRefSize+1, false, 0)
}

// genStream builds a deterministic registry and reference stream for the
// v2 round-trip tests.
func genStream(seed int64, nRegions, nRefs int) (*Registry, []Ref, []int32) {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry()
	for i := 0; i < nRegions; i++ {
		reg.Alloc("region", uint64(rng.Intn(1<<14)+1))
	}
	refs := make([]Ref, nRefs)
	owners := make([]int32, nRefs)
	for i := range refs {
		refs[i] = Ref{
			Addr:  rng.Uint64(),
			Size:  uint32(rng.Intn(256)),
			Write: rng.Intn(2) == 0,
		}
		owners[i] = int32(rng.Intn(nRegions+2)) - 1
	}
	return reg, refs, owners
}

func encodeV2(t *testing.T, reg *Registry, refs []Ref, owners []int32) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterV2(&buf, reg)
	for i := range refs {
		w.Access(refs[i], owners[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("WriterV2.Flush: %v", err)
	}
	return buf.Bytes()
}

// requireRecords fails unless rec holds exactly refs and owners, in
// order.
func requireRecords(t *testing.T, label string, rec *Recorder, refs []Ref, owners []int32) {
	t.Helper()
	if rec.Len() != len(refs) {
		t.Fatalf("%s: replayed %d records, want %d", label, rec.Len(), len(refs))
	}
	for i := range refs {
		if rec.Refs[i] != refs[i] || rec.Owners[i] != owners[i] {
			t.Fatalf("%s: record %d got %+v/%d, want %+v/%d", label, i, rec.Refs[i], rec.Owners[i], refs[i], owners[i])
		}
	}
}

func TestWriterV2RoundTrip(t *testing.T) {
	reg, refs, owners := genStream(11, 5, 4000)
	encoded := encodeV2(t, reg, refs, owners)

	tr, err := DecodeV2(encoded)
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	want := reg.Regions()
	if len(tr.Regions) != len(want) {
		t.Fatalf("regions: got %d, want %d", len(tr.Regions), len(want))
	}
	for i := range want {
		if tr.Regions[i] != want[i] {
			t.Errorf("region %d: got %+v, want %+v", i, tr.Regions[i], want[i])
		}
	}
	if tr.NumRefs() != int64(len(refs)) {
		t.Fatalf("NumRefs = %d, want %d", tr.NumRefs(), len(refs))
	}
	rec := &Recorder{}
	tr.Replay(rec)
	requireRecords(t, "Replay", rec, refs, owners)
	if nativeIsLittle() && !tr.ZeroCopy() {
		t.Error("aligned little-endian decode did not alias the input")
	}
}

func TestDecodeV2MisalignedFallsBackToCopy(t *testing.T) {
	if !nativeIsLittle() {
		t.Skip("copy decode is always taken on big-endian hosts")
	}
	reg, refs, owners := genStream(13, 2, 100)
	encoded := encodeV2(t, reg, refs, owners)
	// Shift the container to a deliberately odd offset so the column bytes
	// cannot be 8-aligned.
	shifted := make([]byte, len(encoded)+1)
	copy(shifted[1:], encoded)
	tr, err := DecodeV2(shifted[1:])
	if err != nil {
		t.Fatalf("DecodeV2: %v", err)
	}
	if tr.ZeroCopy() {
		t.Fatal("misaligned decode claims to be zero-copy")
	}
	rec := &Recorder{}
	tr.Replay(rec)
	requireRecords(t, "Replay", rec, refs, owners)
}

func TestWriterV2OversizeIsStickyError(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	w := NewWriterV2(&buf, reg)
	w.Access(Ref{Addr: 1, Size: MaxRefSize + 1}, 0)
	w.Access(Ref{Addr: 2, Size: 1}, 0) // ignored after the sticky error
	if err := w.Flush(); err == nil {
		t.Fatal("Flush accepted a reference outside the 31-bit size domain")
	}
}

func TestDecodeV2TruncatedNeverPanics(t *testing.T) {
	reg, refs, owners := genStream(19, 4, 200)
	encoded := encodeV2(t, reg, refs, owners)
	for cut := 0; cut < len(encoded); cut += 13 {
		if _, err := DecodeV2(encoded[:cut]); err == nil {
			t.Fatalf("DecodeV2 accepted a %d-byte prefix of a %d-byte container", cut, len(encoded))
		} else if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("prefix %d: error %v is not ErrBadTrace", cut, err)
		}
	}
}

// writeTraceFile writes a v2 container for the stream into dir and
// returns its path.
func writeTraceFile(t *testing.T, dir string, reg *Registry, refs []Ref, owners []int32) string {
	t.Helper()
	path := filepath.Join(dir, "trace.v2")
	if err := os.WriteFile(path, encodeV2(t, reg, refs, owners), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenTraceFileReplays proves the file surface: a stream written as
// v2 replays identically through OpenTraceFile, zero-copy on
// little-endian hosts.
func TestOpenTraceFileReplays(t *testing.T) {
	reg, refs, owners := genStream(23, 3, 3000)
	tf, err := OpenTraceFile(writeTraceFile(t, t.TempDir(), reg, refs, owners))
	if err != nil {
		t.Fatalf("OpenTraceFile: %v", err)
	}
	if tf.NumRefs() != int64(len(refs)) {
		t.Fatalf("NumRefs = %d, want %d", tf.NumRefs(), len(refs))
	}
	want := reg.Regions()
	if len(tf.Regions) != len(want) {
		t.Fatalf("regions %d, want %d", len(tf.Regions), len(want))
	}
	rec := &Recorder{}
	if err := tf.Replay(rec); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	requireRecords(t, "Replay", rec, refs, owners)
	if nativeIsLittle() && !tf.ZeroCopy() {
		t.Error("replay is not zero-copy on a little-endian host")
	}
	if err := tf.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestTraceFileLifetime pins the mapping's lifetime contract: Close is
// idempotent, a Closed file replays nothing and says so, and every
// content that is not a whole v2 container fails to open with
// ErrBadTrace.
func TestTraceFileLifetime(t *testing.T) {
	reg, refs, owners := genStream(31, 2, 64)
	dir := t.TempDir()
	path := writeTraceFile(t, dir, reg, refs, owners)

	tf, err := OpenTraceFile(path)
	if err != nil {
		t.Fatalf("OpenTraceFile: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := tf.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	called := false
	if err := tf.Replay(ConsumerFunc(func(Ref, int32) { called = true })); err == nil {
		t.Error("Replay after Close returned nil")
	}
	if called {
		t.Error("Replay after Close called the consumer")
	}
	if n := tf.NumRefs(); n != 0 {
		t.Errorf("NumRefs after Close = %d, want 0", n)
	}
	if tf.ZeroCopy() {
		t.Error("ZeroCopy after Close = true")
	}

	// A v1 record container: magic "DVFT", version 1, one region "A",
	// one 17-byte record.
	v1 := []byte("DVFT\x01\x00\x01\x00\x00\x00")
	v1 = append(v1, make([]byte, 20)...)
	v1 = append(v1, 1, 0, 'A')
	v1 = append(v1, make([]byte, 17)...)
	full := encodeV2(t, reg, refs, owners)
	for name, data := range map[string][]byte{
		"empty":     nil,
		"v1":        v1,
		"garbage":   []byte("not a trace container at all"),
		"truncated": full[:len(full)-8],
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tf, err := OpenTraceFile(p)
		if !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: OpenTraceFile error = %v, want ErrBadTrace", name, err)
		}
		if err != nil && !strings.HasPrefix(err.Error(), p+": ") {
			t.Errorf("%s: OpenTraceFile error %q does not name the file", name, err)
		}
		if tf != nil {
			t.Errorf("%s: OpenTraceFile returned a file with its error", name)
		}
	}
}
