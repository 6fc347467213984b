package cache

import (
	"reflect"
	"testing"
)

// FuzzAccessRunVsAccess checks AccessRun against an Access loop over the
// same passes. The program is read op by op: an op byte with its low two
// bits clear takes a SaveState on both simulators; any other op byte is
// a group of 1 + op>>5 references, the next bytes, visited
// 1 + (op>>2)&7 times. A reference byte b reads or writes (b&32) the
// 8-byte element at byte 4*(b&31), owned by structure 1 + b>>6, so
// groups repeat lines and, on 4-byte lines or at odd offsets, span two.
// The geometry has 1-8 ways, 1-8 sets and 4-32 byte lines. After every
// op both simulators must agree on every counter and on SameState. The
// committed corpus under testdata/fuzz pins a group that fits, a
// direct-mapped conflict and a one-set geometry with spanning references.
func FuzzAccessRunVsAccess(f *testing.F) {
	f.Add([]byte{0x2d, 1, 2, 0, 0x2d, 1, 0x22}, uint8(1), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, prog []byte, assocSel, setSel, lineSel uint8) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		cfg := Config{
			Name:          "fuzz",
			Associativity: 1 + int(assocSel%8),
			Sets:          1 << (setSel % 4),
			LineSize:      4 << (lineSel % 4),
		}
		run, err := NewSimulator(cfg)
		if err != nil {
			t.Fatalf("geometry %v rejected: %v", cfg, err)
		}
		loop, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			if op&3 == 0 {
				run.SaveState()
				loop.SaveState()
			} else {
				size := min(1+int(op>>5), len(prog))
				refs := make([]Ref, size)
				for i, b := range prog[:size] {
					refs[i] = Ref{Addr: 4 * uint64(b&31), Size: 8, Write: b&32 != 0, Owner: StructID(1 + b>>6)}
				}
				prog = prog[size:]
				times := 1 + int(op>>2&7)
				run.AccessRun(refs, times)
				for range times {
					for _, r := range refs {
						loop.Access(r.Addr, r.Size, r.Write, r.Owner)
					}
				}
			}
			if got, want := run.PerStructStats(), loop.PerStructStats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: AccessRun %v, Access loop %v", cfg, got, want)
			}
			if run.SameState() != loop.SameState() {
				t.Fatalf("%v: AccessRun SameState %v, Access loop %v", cfg, run.SameState(), loop.SameState())
			}
		}
		run.Flush()
		loop.Flush()
		if got, want := run.TotalStats(), loop.TotalStats(); got != want {
			t.Fatalf("%v after Flush: AccessRun %+v, Access loop %+v", cfg, got, want)
		}
	})
}
