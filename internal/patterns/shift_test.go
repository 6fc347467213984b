package patterns

import (
	"math/rand"
	"testing"
)

// TestRunShiftedMatchesPlanes runs sliding-window loops through
// RunShifted and through a plain counter, several phases back to back
// on one counter, and requires equal counters after every phase. Phase
// p's plane i visits a random pattern of offsets below w, moved by
// i*delta inside a range of its own, then a few blocks of another range
// moved by i*delta2, then a fixed block past both ranges. The capacities
// go from a few blocks, where every plane thrashes, to more than a
// phase touches.
func TestRunShiftedMatchesPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(120)
		const blocks = 4096
		shifted := NewBlockCounter(capacity, blocks)
		plain := NewTemplateCounter(capacity, false)
		for phase := 0; phase < 4; phase++ {
			planes := 1 + rng.Intn(40)
			delta, delta2 := int64(1+rng.Intn(8)), int64(rng.Intn(4))
			w := 1 + rng.Intn(24)
			lo := int64(rng.Intn(64))
			hi := lo + int64(planes)*delta + int64(w)
			lo2 := hi + int64(rng.Intn(16))
			hi2 := lo2 + int64(planes)*delta2 + 4
			fixed := hi2 + int64(rng.Intn(32))
			pattern := make([]int64, 1+rng.Intn(3*w))
			for k := range pattern {
				pattern[k] = int64(rng.Intn(w))
			}
			visit := func(ctr *TemplateCounter, i int) {
				for _, off := range pattern {
					ctr.Visit(lo + int64(i)*delta + off)
				}
				for k := int64(3); k >= 0; k-- {
					ctr.Visit(lo2 + int64(i)*delta2 + k)
				}
				ctr.Visit(fixed)
			}
			shifts := []BlockShift{{Lo: lo, Hi: hi, Delta: delta}, {Lo: lo2, Hi: hi2, Delta: delta2}}
			if delta2 == 0 {
				shifts = shifts[:1]
			}
			shifted.RunShifted(planes, shifts, func(i int) { visit(&shifted.TemplateCounter, i) })
			for i := range planes {
				visit(plain, i)
			}
			if got, want := shifted.Stats(), plain.Stats(); got != want {
				t.Fatalf("trial %d, capacity %d, phase %d (%d planes, shifts %+v): RunShifted %+v, plain %+v",
					trial, capacity, phase, planes, shifts, got, want)
			}
		}
	}
}
