package trace

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzEncodeDecode round-trips the trace container through its file
// surface: a registry and reference stream generated from the fuzzed
// inputs are written through WriterV2 to a file, opened with
// OpenTraceFile and replayed, and every region and record must survive
// bit-for-bit. The tail of each case opens a file holding a truncated
// prefix of the container, which must fail with ErrBadTrace and hand back
// no TraceFile. Seed corpus lives under testdata/fuzz.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(100), uint16(7))
	f.Add(int64(99), uint8(0), uint16(0), uint16(0))    // empty registry, empty stream
	f.Add(int64(5), uint8(16), uint16(2048), uint16(1)) // many regions, truncate early
	f.Fuzz(func(t *testing.T, seed int64, nRegions uint8, nRefs uint16, cut uint16) {
		reg, refs, owners := fuzzStream(seed, nRegions, nRefs)
		encoded := encodeV2(t, reg, refs, owners)
		dir := t.TempDir()
		path := filepath.Join(dir, "trace.v2")
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}

		tf, err := OpenTraceFile(path)
		if err != nil {
			t.Fatalf("OpenTraceFile: %v", err)
		}
		want := reg.Regions()
		if len(tf.Regions) != len(want) {
			t.Fatalf("regions: got %d, want %d", len(tf.Regions), len(want))
		}
		for i := range want {
			if tf.Regions[i] != want[i] {
				t.Errorf("region %d: got %+v, want %+v", i, tf.Regions[i], want[i])
			}
		}
		if tf.NumRefs() != int64(len(refs)) {
			t.Fatalf("records: got %d, want %d", tf.NumRefs(), len(refs))
		}
		rec := &Recorder{}
		if err := tf.Replay(rec); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		requireRecords(t, "Replay", rec, refs, owners)
		if err := tf.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// A truncated container must fail to open, never panic.
		prefix := filepath.Join(dir, "prefix.v2")
		if err := os.WriteFile(prefix, encoded[:int(cut)%len(encoded)], 0o644); err != nil {
			t.Fatal(err)
		}
		short, err := OpenTraceFile(prefix)
		if !errors.Is(err, ErrBadTrace) {
			t.Fatalf("OpenTraceFile(%d-byte prefix of %d): error %v, want ErrBadTrace",
				int(cut)%len(encoded), len(encoded), err)
		}
		if short != nil {
			t.Fatal("OpenTraceFile returned a file with its error")
		}
	})
}
