package patterns

import "testing"

// FuzzVisitRunVsVisit checks VisitRun against a Visit loop over the same
// passes. The program is read op by op: an op byte with its low two bits
// clear snapshots both counters' states; any other op byte is a group
// of 1 + op>>5 blocks, the next bytes, each folded to one of 8 ids so
// groups repeat blocks, visited 1 + (op>>2)&7 times. After every op both
// counters must agree on Misses, Visits, Evictions, DistinctBlocks and
// whether their states equal their snapshots.
// Capacity is folded into 0-8, so groups both fit and overflow it. The
// committed corpus under testdata/fuzz pins a group that fits, one that
// overflows, capacity 0 and raw-distance mode.
func FuzzVisitRunVsVisit(f *testing.F) {
	f.Add([]byte{0x25, 1, 2, 0, 0x2d, 1, 2}, uint8(4), false)
	f.Fuzz(func(t *testing.T, prog []byte, capSel uint8, raw bool) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		capacity := int(capSel % 9)
		run, loop := NewTemplateCounter(capacity, raw), NewTemplateCounter(capacity, raw)
		var runSaved, loopSaved []uint64
		for len(prog) > 0 {
			op := prog[0]
			prog = prog[1:]
			if op&3 == 0 {
				runSaved = run.AppendState(runSaved[:0])
				loopSaved = loop.AppendState(loopSaved[:0])
			} else {
				size := min(1+int(op>>5), len(prog))
				blocks := make([]int64, size)
				for i, b := range prog[:size] {
					blocks[i] = int64(b & 7)
				}
				prog = prog[size:]
				times := 1 + int(op>>2&7)
				run.VisitRun(blocks, times)
				for range times {
					for _, b := range blocks {
						loop.Visit(b)
					}
				}
			}
			if run.Stats() != loop.Stats() || run.DistinctBlocks() != loop.DistinctBlocks() ||
				run.SameAs(runSaved) != loop.SameAs(loopSaved) {
				t.Fatalf("capacity %d raw=%v: VisitRun %+v distinct %d same %v; Visit loop %+v %d %v",
					capacity, raw, run.Stats(), run.DistinctBlocks(), run.SameAs(runSaved),
					loop.Stats(), loop.DistinctBlocks(), loop.SameAs(loopSaved))
			}
		}
	})
}
