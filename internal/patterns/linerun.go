package patterns

import (
	"math/bits"

	"github.com/resilience-models/dvf/internal/cache"
)

// LineRun walks one step of a template's inner loop at a time through a
// TemplateCounter, together with the steps after it that touch the same
// blocks. Each element of a step advances by its own byte stride per
// step and touches the same lines for as long as it stays inside them,
// so consecutive steps repeat one block group. A step's run is the
// fewest such steps over its elements (cache.StepsInLine), capped by the
// steps left in the loop; the counter sees the group once per step of
// the run, through the VisitRun shortcut. When a line holds no more than
// one element, every run is one step.
//
//	for k := 0; k < n; {
//		run.Start(n - k)
//		run.Add(addrOf(k), size, stride) // one call per element of the step
//		k += run.End()
//	}
type LineRun struct {
	ctr    *TemplateCounter
	blocks []int64 // the step's blocks, in visit order, kept while the run is longer than one step
	steps  int     // the run so far: steps, this one included, that touch blocks
	line   int64   // line size in bytes
	shift  uint    // log2 of the line size
}

// NewLineRun returns a LineRun feeding ctr, for lines of lineSize bytes,
// a power of two (cache.Config.Validate guarantees one).
func NewLineRun(ctr *TemplateCounter, lineSize int) *LineRun {
	return &LineRun{ctr: ctr, line: int64(lineSize), shift: uint(bits.TrailingZeros(uint(lineSize)))}
}

// Start begins a step with left steps, this one included, still to go
// in its loop.
func (r *LineRun) Start(left int) {
	r.blocks = r.blocks[:0]
	r.steps = left
}

// Add visits the element of size bytes at byte address addr, which
// moves stride bytes per step: every block it spans, in order. It
// bounds the run by the steps the element stays in its line.
func (r *LineRun) Add(addr, size, stride int64) {
	if r.steps > 1 {
		r.steps = int(min(int64(r.steps), cache.StepsInLine(addr, size, stride, r.line)))
	}
	for b, last := addr>>r.shift, (addr+size-1)>>r.shift; b <= last; b++ {
		r.ctr.Visit(b)
		if r.steps > 1 {
			r.blocks = append(r.blocks, b)
		}
	}
}

// End feeds the step's blocks to the counter once for each further step
// of the run, as VisitRun does after its first pass, and returns the
// run's length: the amount to advance the loop by.
func (r *LineRun) End() int {
	if r.steps > 1 {
		r.ctr.revisit(r.blocks, r.steps-1)
	}
	return r.steps
}
