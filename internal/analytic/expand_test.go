package analytic_test

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// The descriptor expander turns each phase of a descriptor back into the
// references of the loop nest it models, so a hand-written descriptor is
// checked against the trace its kernel's Run emits, at any size.
//
// A phase expands to steps: one per innermost iteration, or per coarse
// cell for Restrict and Prolong. A step lists the references that
// iteration makes, in program order, as (region, element index, write).
// Every kind but Stream is exact. A Stream step lists each traversal's
// element once, in the body's first-access order; the loop may touch an
// element of the step again after its first touch, and a Stream does not
// say which touches are writes, so neither is checked.
//
// The regions are laid out as a trace.Registry lays out the kernel's
// allocations, so a descriptor lists its regions in allocation order.

// expRef is one reference of an expanded phase: an element of a region,
// by the region's index in the descriptor.
type expRef struct {
	region, elem int
	write        bool
}

// expPhase is one phase of the flattened program: steps steps, whose
// references step appends to buf. A loose phase is a Stream.
type expPhase struct {
	phase analytic.Phase
	steps int
	loose bool
	step  func(t int, buf []expRef) []expRef
}

// expand flattens d's program, with every Repeat unrolled, into phases.
func expand(d *analytic.Descriptor) ([]expPhase, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	ri := make(map[string]int, len(d.Regions))
	for i, r := range d.Regions {
		ri[r.Name] = i
	}
	var out []expPhase
	var walk func(ps []analytic.Phase) error
	walk = func(ps []analytic.Phase) error {
		for _, p := range ps {
			switch p := p.(type) {
			case analytic.Repeat:
				for range p.Count {
					if err := walk(p.Body); err != nil {
						return err
					}
				}
			case analytic.Stream:
				ts := p.Streams
				for _, s := range ts {
					if s.Count != ts[0].Count {
						return fmt.Errorf("%s: Stream traversals of %d and %d steps are not one loop", d.Kernel, ts[0].Count, s.Count)
					}
				}
				out = append(out, expPhase{phase: p, steps: ts[0].Count, loose: true, step: func(t int, buf []expRef) []expRef {
					for _, s := range ts {
						buf = append(buf, expRef{ri[s.Region], s.StartElem + t*s.StrideElems, false})
					}
					return buf
				}})
			case analytic.MatVec:
				m, v, o, n := ri[p.Matrix], ri[p.Vec], ri[p.Out], p.N
				// Per row i, n steps of the inner loop over j, then the store.
				out = append(out, expPhase{phase: p, steps: n * (n + 1), step: func(t int, buf []expRef) []expRef {
					i, j := t/(n+1), t%(n+1)
					if j == n {
						return append(buf, expRef{o, i, true})
					}
					return append(buf, expRef{m, i*n + j, false}, expRef{v, j, false})
				}})
			case analytic.Smooth:
				r, n, off := ri[p.Region], p.Dim, p.OffsetElems
				out = append(out, expPhase{phase: p, steps: (n - 2) * (n - 2) * n, step: func(t int, buf []expRef) []expRef {
					k, ij := t%n, t/n
					i, j := 1+ij/(n-2), 1+ij%(n-2)
					c := off + (i*n+j)*n + k
					return append(buf,
						expRef{r, c - n, false}, expRef{r, c + n, false},
						expRef{r, c - n*n, false}, expRef{r, c + n*n, false},
						expRef{r, c, true})
				}})
			case analytic.Restrict:
				r := ri[p.Region]
				out = append(out, expPhase{phase: p, steps: p.CoarseDim * p.CoarseDim * p.CoarseDim, step: func(t int, buf []expRef) []expRef {
					i, j, k, coarse := coarseCell(t, p.CoarseDim, p.CoarseOffs)
					for _, f := range fineBlock(i, j, k, p.FineDim, p.FineOffset) {
						buf = append(buf, expRef{r, f, false})
					}
					return append(buf, expRef{r, coarse, true})
				}})
			case analytic.Prolong:
				r := ri[p.Region]
				out = append(out, expPhase{phase: p, steps: p.CoarseDim * p.CoarseDim * p.CoarseDim, step: func(t int, buf []expRef) []expRef {
					i, j, k, coarse := coarseCell(t, p.CoarseDim, p.CoarseOffs)
					buf = append(buf, expRef{r, coarse, false})
					for _, f := range fineBlock(i, j, k, p.FineDim, p.FineOffset) {
						buf = append(buf, expRef{r, f, false}, expRef{r, f, true})
					}
					return buf
				}})
			case analytic.BitReverse:
				r, shift := ri[p.Region], bits.UintSize-bits.TrailingZeros(uint(p.N))
				out = append(out, expPhase{phase: p, steps: p.N, step: func(i int, buf []expRef) []expRef {
					j := int(bits.Reverse(uint(i)) >> shift)
					if i >= j {
						return buf
					}
					return append(buf, expRef{r, i, false}, expRef{r, j, false}, expRef{r, i, true}, expRef{r, j, true})
				}})
			case analytic.Butterflies:
				r, n := ri[p.Region], p.N
				// Pass s has half-width 2^s; its n/2 butterflies run by
				// block start, then by offset j within the block.
				out = append(out, expPhase{phase: p, steps: bits.TrailingZeros(uint(n)) * n / 2, step: func(t int, buf []expRef) []expRef {
					half := 1 << (t / (n / 2))
					u := t % (n / 2)
					a := u/half*2*half + u%half
					return append(buf, expRef{r, a, false}, expRef{r, a + half, false}, expRef{r, a, true}, expRef{r, a + half, true})
				}})
			default:
				return fmt.Errorf("%s: no expansion for phase %T", d.Kernel, p)
			}
		}
		return nil
	}
	if err := walk(d.Phases); err != nil {
		return nil, err
	}
	return out, nil
}

// coarseCell decodes step t of a transfer into its coarse cell (i, j, k)
// of an nc^3 level at element offset off, and that cell's element index.
func coarseCell(t, nc, off int) (i, j, k, elem int) {
	i, j, k = t/(nc*nc), t/nc%nc, t%nc
	return i, j, k, off + (i*nc+j)*nc + k
}

// fineBlock returns the element indices of coarse cell (i, j, k)'s 2x2x2
// children in an nf^3 level at element offset off, in (di, dj, dk) order.
func fineBlock(i, j, k, nf, off int) (kids [8]int) {
	for di := 0; di < 2; di++ {
		for dj := 0; dj < 2; dj++ {
			for dk := 0; dk < 2; dk++ {
				kids[4*di+2*dj+dk] = off + ((2*i+di)*nf+2*j+dj)*nf + 2*k + dk
			}
		}
	}
	return kids
}

// traceChecker advances a descriptor's expansion reference by reference
// as a kernel's trace arrives, and keeps the first mismatch. It holds one
// step at a time, so memory does not grow with the trace.
type traceChecker struct {
	kernel  string
	phases  []expPhase
	regions []trace.Region // the descriptor's regions, laid out as the kernel's registry does
	elems   []uint64       // element size per region

	p, t     int      // current phase, and step within it
	step     []expRef // step t of phase p
	k        int      // references of step matched
	ref      int64    // trace references matched
	phaseRef int64    // of which in phase p
	err      error
}

func newTraceChecker(d *analytic.Descriptor) (*traceChecker, error) {
	phases, err := expand(d)
	if err != nil {
		return nil, err
	}
	c := &traceChecker{kernel: d.Kernel, phases: phases, t: -1}
	reg := trace.NewRegistry()
	for _, r := range d.Regions {
		c.regions = append(c.regions, reg.Alloc(r.Name, uint64(r.Bytes)))
		c.elems = append(c.elems, uint64(r.ElemSize))
	}
	return c, nil
}

// next moves to the next step that makes references, and reports false
// once every phase has ended.
func (c *traceChecker) next() bool {
	for c.p < len(c.phases) {
		c.t++
		if c.t == c.phases[c.p].steps {
			c.p, c.t, c.phaseRef = c.p+1, -1, 0
			continue
		}
		c.step, c.k = c.phases[c.p].step(c.t, c.step[:0]), 0
		if len(c.step) > 0 {
			return true
		}
	}
	return false
}

// is reports whether the trace reference r of owner is e; a loose phase
// does not compare the write flag.
func (c *traceChecker) is(r trace.Ref, owner int32, e expRef, loose bool) bool {
	reg, size := c.regions[e.region], c.elems[e.region]
	return owner == reg.ID && r.Addr == reg.Base+uint64(e.elem)*size &&
		uint64(r.Size) == size && (loose || r.Write == e.write)
}

// access is the trace.ConsumerFunc the kernel runs against.
func (c *traceChecker) access(r trace.Ref, owner int32) {
	if c.err != nil {
		return
	}
	for {
		loose := c.p < len(c.phases) && c.phases[c.p].loose
		if c.k < len(c.step) && c.is(r, owner, c.step[c.k], loose) {
			c.k++
			break
		}
		if loose && c.repeats(r, owner) {
			break
		}
		if c.k < len(c.step) {
			want := c.describe(c.step[c.k], loose)
			if loose {
				want += " or a repeat of this step's elements"
			}
			c.fail("got %s, want %s", c.describeRef(r, owner), want)
			return
		}
		if !c.next() {
			c.fail("got %s past the descriptor's last phase", c.describeRef(r, owner))
			return
		}
	}
	c.ref++
	c.phaseRef++
}

// repeats reports whether r touches an element the current step has
// already touched.
func (c *traceChecker) repeats(r trace.Ref, owner int32) bool {
	for _, e := range c.step[:c.k] {
		if c.is(r, owner, e, true) {
			return true
		}
	}
	return false
}

// finish reports the first mismatch, or a trace that ended before the
// descriptor's last reference.
func (c *traceChecker) finish() error {
	if c.err == nil && (c.k < len(c.step) || c.next()) {
		c.fail("the trace ends, want %s", c.describe(c.step[c.k], c.phases[c.p].loose))
	}
	return c.err
}

func (c *traceChecker) fail(format string, args ...any) {
	loc := "after the last phase"
	if c.p < len(c.phases) {
		loc = fmt.Sprintf("flattened phase %d (%T %+v)", c.p, c.phases[c.p].phase, c.phases[c.p].phase)
	}
	c.err = fmt.Errorf("%s: %s, reference %d of the phase (trace reference %d): %s",
		c.kernel, loc, c.phaseRef, c.ref, fmt.Sprintf(format, args...))
}

func (c *traceChecker) describe(e expRef, loose bool) string {
	s := fmt.Sprintf("%s[%d]", c.regions[e.region].Name, e.elem)
	if loose {
		return s
	}
	if e.write {
		return "store " + s
	}
	return "load " + s
}

// describeRef names r by region and element when it is an aligned
// element of one of the descriptor's regions, by address otherwise.
func (c *traceChecker) describeRef(r trace.Ref, owner int32) string {
	op := "load"
	if r.Write {
		op = "store"
	}
	if i := int(owner) - 1; i >= 0 && i < len(c.regions) && c.regions[i].Contains(r.Addr) &&
		uint64(r.Size) == c.elems[i] && (r.Addr-c.regions[i].Base)%c.elems[i] == 0 {
		return fmt.Sprintf("%s %s[%d]", op, c.regions[i].Name, (r.Addr-c.regions[i].Base)/c.elems[i])
	}
	return fmt.Sprintf("%s of %d bytes at %#x (owner %d)", op, r.Size, r.Addr, owner)
}

// checkTrace runs k through a plain consumer, so its element loops are
// traced one reference at a time, and checks the trace against k's
// descriptor, reference by reference, and the run's structures against
// the descriptor's regions.
func checkTrace(k kernels.Kernel) error {
	d, ok := kernels.Affine(k)
	if !ok {
		return fmt.Errorf("%s: no access pattern", k.Name())
	}
	c, err := newTraceChecker(d)
	if err != nil {
		return err
	}
	info, err := k.Run(trace.ConsumerFunc(c.access))
	if err != nil {
		return err
	}
	if err := c.finish(); err != nil {
		return err
	}
	if info.Refs != c.ref {
		return fmt.Errorf("%s: the run made %d references, the consumer saw %d", k.Name(), info.Refs, c.ref)
	}
	for _, st := range info.Structures {
		i := int(st.ID) - 1
		if i < 0 || i >= len(c.regions) || c.regions[i].Name != st.Name || c.regions[i].Size != uint64(st.Bytes) {
			return fmt.Errorf("%s: structure %s (id %d, %d bytes) is not a descriptor region at its place", k.Name(), st.Name, st.ID, st.Bytes)
		}
	}
	return nil
}

// TestDescriptorMatchesTrace holds every hand-written descriptor of both
// suites to its kernel's trace: the references Run makes are the
// expansion of the descriptor's phases, in order, and nothing else.
func TestDescriptorMatchesTrace(t *testing.T) {
	suites := []struct {
		name string
		ks   []kernels.Kernel
	}{
		{"verification", kernels.VerificationSuite()},
		{"profiling", kernels.ProfilingSuite()},
	}
	for _, s := range suites {
		n := 0
		for _, k := range s.ks {
			if _, ok := kernels.Affine(k); !ok {
				continue
			}
			n++
			t.Run(s.name+"/"+k.Name(), func(t *testing.T) {
				if err := checkTrace(k); err != nil {
					t.Fatal(err)
				}
			})
		}
		if n != 4 {
			t.Fatalf("%s suite: want 4 kernels with a descriptor (VM, CG, MG, FT), got %d", s.name, n)
		}
	}
}

// FuzzDescriptorMatchesTrace is TestDescriptorMatchesTrace at sizes the
// suites do not use: VM of any length and strides, CG of any dimension at
// a fixed iteration count, MG at 8^3, 16^3 and 32^3 with one or two
// cycles and sweeps, and FT from 4 to 4096 points over one or two rounds.
func FuzzDescriptorMatchesTrace(f *testing.F) {
	f.Add(uint8(0), uint16(37), uint8(2), uint8(5))
	f.Add(uint8(1), uint16(61), uint8(1), uint8(0))
	f.Add(uint8(2), uint16(0), uint8(1), uint8(1))
	f.Add(uint8(2), uint16(1), uint8(0), uint8(1))
	f.Add(uint8(3), uint16(10), uint8(0), uint8(0))
	f.Add(uint8(3), uint16(3), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, kind uint8, size uint16, a, b uint8) {
		var k kernels.Kernel
		switch kind % 4 {
		case 0:
			k = &kernels.VM{N: 1 + int(size%5000), StrideA: 1 + int(a%8), StrideB: 1 + int(b%8)}
		case 1:
			k = kernels.NewCG(2+int(size%300), 1+int(a%3))
		case 2:
			k = &kernels.MG{N: 8 << (size % 3), Cycles: 1 + int(a%2), Smooth: 1 + int(b%2)}
		case 3:
			k = &kernels.FT{N: 4 << (size % 11), Rounds: 1 + int(a%2)}
		}
		if err := checkTrace(k); err != nil {
			t.Fatal(err)
		}
	})
}
