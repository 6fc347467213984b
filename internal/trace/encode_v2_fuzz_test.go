package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// fuzzStream derives a registry and reference stream from fuzz inputs,
// shared by the trace fuzz targets. Sizes stay inside the meta word's
// 31-bit domain — the only part of the Ref domain v2 restricts.
func fuzzStream(seed int64, nRegions uint8, nRefs uint16) (*Registry, []Ref, []int32) {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry()
	names := []string{"A", "B", "C", "T", "G", "", "structure-with-a-long-name", "α/β"}
	for i := 0; i < int(nRegions%24); i++ {
		reg.Alloc(names[rng.Intn(len(names))], uint64(rng.Intn(1<<14)))
	}
	var refs []Ref
	var owners []int32
	for i := 0; i < int(nRefs); i++ {
		size := uint32(rng.Uint64()) & MaxRefSize
		if rng.Intn(4) != 0 {
			size = uint32(rng.Intn(256)) // mostly realistic element sizes
		}
		refs = append(refs, Ref{Addr: rng.Uint64(), Size: size, Write: rng.Intn(2) == 0})
		owners = append(owners, int32(rng.Intn(int(nRegions%24)+2))-1)
	}
	return reg, refs, owners
}

// FuzzEncodeDecodeV2 round-trips the v2 columnar container: a registry and
// reference stream generated from the fuzzed inputs are written through
// WriterV2 and decoded with DecodeV2, and every region and record must
// survive bit-for-bit — through both the zero-copy aliasing path and the
// forced-misalignment copy path. The tail of each case decodes a truncated
// prefix, which must fail with ErrBadTrace rather than panic. Seed corpus
// lives under testdata/fuzz.
func FuzzEncodeDecodeV2(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(100), uint16(7))
	f.Add(int64(99), uint8(0), uint16(0), uint16(0))
	f.Add(int64(5), uint8(16), uint16(2048), uint16(1))
	f.Add(int64(7), uint8(20), uint16(1500), uint16(333))
	f.Fuzz(func(t *testing.T, seed int64, nRegions uint8, nRefs uint16, cut uint16) {
		reg, refs, owners := fuzzStream(seed, nRegions, nRefs)

		var buf bytes.Buffer
		w := NewWriterV2(&buf, reg)
		for i := range refs {
			w.Access(refs[i], owners[i])
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		encoded := buf.Bytes()

		check := func(tr *TraceV2, path string) {
			want := reg.Regions()
			if len(tr.Regions) != len(want) {
				t.Fatalf("%s: regions got %d, want %d", path, len(tr.Regions), len(want))
			}
			for i := range want {
				if tr.Regions[i] != want[i] {
					t.Errorf("%s: region %d got %+v, want %+v", path, i, tr.Regions[i], want[i])
				}
			}
			if tr.NumRefs() != int64(len(refs)) {
				t.Fatalf("%s: records got %d, want %d", path, tr.NumRefs(), len(refs))
			}
			rec := &Recorder{}
			tr.Replay(rec)
			requireRecords(t, path, rec, refs, owners)
		}

		tr, err := DecodeV2(encoded)
		if err != nil {
			t.Fatalf("DecodeV2: %v", err)
		}
		check(tr, "aligned")

		// Force the copy-decode path by breaking 8-byte alignment.
		shifted := make([]byte, len(encoded)+1)
		copy(shifted[1:], encoded)
		trOdd, err := DecodeV2(shifted[1:])
		if err != nil {
			t.Fatalf("DecodeV2(misaligned): %v", err)
		}
		if trOdd.ZeroCopy() {
			t.Fatal("misaligned decode claims zero-copy")
		}
		check(trOdd, "misaligned")

		// A truncated container must never panic the decoder.
		if len(encoded) > 0 {
			_, _ = DecodeV2(encoded[:int(cut)%len(encoded)])
		}
	})
}

// FuzzV1V2RoundTrip pins the format boundary left by retiring the v1
// record container: the same reference stream written as a v2 container
// must replay bit-identically through DecodeV2 and TraceV2.Replay, and
// the container re-tagged with the v1 magic and version must be refused
// with ErrBadTrace rather than replayed, so a v1 file can never feed a
// simulation. Seed corpus lives under testdata/fuzz.
func FuzzV1V2RoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(100))
	f.Add(int64(42), uint8(0), uint16(0))
	f.Add(int64(7), uint8(20), uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, nRegions uint8, nRefs uint16) {
		reg, refs, owners := fuzzStream(seed, nRegions, nRefs)
		encoded := encodeV2(t, reg, refs, owners)

		tr, err := DecodeV2(encoded)
		if err != nil {
			t.Fatalf("DecodeV2: %v", err)
		}
		rec := &Recorder{}
		tr.Replay(rec)
		requireRecords(t, "Replay", rec, refs, owners)

		v1 := bytes.Clone(encoded)
		copy(v1[0:6], "DVFT\x01\x00")
		if _, err := DecodeV2(v1); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("DecodeV2 of a v1-tagged container: error %v, want ErrBadTrace", err)
		}
	})
}
