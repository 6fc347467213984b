package kernels

import (
	"fmt"

	"github.com/resilience-models/dvf/internal/analytic"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/mathx"
	"github.com/resilience-models/dvf/internal/patterns"
	"github.com/resilience-models/dvf/internal/trace"
)

// MG is the multi-grid kernel: the V-cycle over a 3-D grid hierarchy, with
// the Algorithm 3 four-neighbor smoother at every level. Matching the
// paper (and NPB MG's storage scheme), all grid levels live in one array R,
// which is the kernel's single major data structure; its accesses follow
// the template-based pattern.
//
// The grid sizes follow NPB classes: class S is 32^3 (verification) and
// class W is 64^3 (profiling).
type MG struct {
	N      int // finest grid dimension per axis (power of two)
	Cycles int // number of V-cycles; 0 means 1
	Smooth int // smoother sweeps per level per leg; 0 means 1
}

// NewMG returns an MG kernel over an n^3 finest grid.
func NewMG(n, cycles int) *MG {
	return &MG{N: n, Cycles: cycles}
}

// Name implements Kernel.
func (*MG) Name() string { return "MG" }

// Class implements Kernel (Table II).
func (*MG) Class() string { return "Structured grids" }

// PatternSummary implements Kernel (Table II).
func (*MG) PatternSummary() string { return "Template-based" }

// Validate reports configuration errors.
func (mg *MG) Validate() error {
	if mg.N < 8 || mg.N&(mg.N-1) != 0 {
		return fmt.Errorf("mg: n=%d must be a power of two >= 8", mg.N)
	}
	if mg.Cycles < 0 || mg.Smooth < 0 {
		return fmt.Errorf("mg: cycles=%d and smooth=%d must be non-negative", mg.Cycles, mg.Smooth)
	}
	return nil
}

const mgMinGrid = 8 // coarsest level dimension

// mgLevels returns the per-level grid dimensions from finest to coarsest.
func mgLevels(n int) []int {
	var dims []int
	for d := n; d >= mgMinGrid; d /= 2 {
		dims = append(dims, d)
	}
	return dims
}

// mgOffsets returns each level's element offset within the single R array
// and the total element count.
func mgOffsets(dims []int) (offsets []int, total int) {
	offsets = make([]int, len(dims))
	for l, d := range dims {
		offsets[l] = total
		total += d * d * d
	}
	return offsets, total
}

// mgGrid addresses one level inside R.
type mgGrid struct {
	data   []float64
	offset int // element offset of this level within R
	n      int // dimension per axis
	reg    trace.Region
	mem    *trace.Memory
}

func (g *mgGrid) idx(i, j, k int) int { return (i*g.n+j)*g.n + k }

// row returns the raw k row (i, j, 0..n-1) of g.
func (g *mgGrid) row(i, j int) []float64 {
	e := g.offset + g.idx(i, j, 0)
	return g.data[e : e+g.n : e+g.n]
}

func (g *mgGrid) load(i, j, k int) float64 {
	e := g.idx(i, j, k)
	g.mem.LoadN(g.reg, g.offset+e, elem8)
	return g.data[g.offset+e]
}

func (g *mgGrid) store(i, j, k int, v float64) {
	e := g.idx(i, j, k)
	g.data[g.offset+e] = v
	g.mem.StoreN(g.reg, g.offset+e, elem8)
}

// initGroup makes every element of group an 8-byte read of g's region
// moving stride elements per step, for the caller to place. The grouped
// bodies below emit one group per innermost k loop (see
// trace.Memory.TakesGroups) and then compute that loop on the raw data,
// in the element loop's order.
func (g *mgGrid) initGroup(group []trace.Strided, stride int64) {
	for e := range group {
		group[e] = trace.Strided{Region: g.reg, Size: elem8, Stride: stride * elem8}
	}
}

// at returns the byte offset of element (i, j, k) of g within R.
func (g *mgGrid) at(i, j, k int) uint64 { return uint64(g.offset+g.idx(i, j, k)) * elem8 }

// smooth applies the Algorithm 3 smoother: every interior cell is replaced
// by the scaled sum of its four lateral neighbors (the paper's pseudocode,
// a damped Jacobi-like relaxation in the j/i plane).
func (g *mgGrid) smooth() int64 {
	n := g.n
	var flops int64
	if g.mem.TakesGroups() {
		var row [5]trace.Strided // the four neighbours, then the store
		g.initGroup(row[:], 1)
		row[4].Write = true
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				row[0].Off, row[1].Off = g.at(i, j-1, 0), g.at(i, j+1, 0)
				row[2].Off, row[3].Off = g.at(i-1, j, 0), g.at(i+1, j, 0)
				row[4].Off = g.at(i, j, 0)
				g.mem.Strided(row[:], n)
				w, e := g.row(i, j-1), g.row(i, j+1)
				s, nn := g.row(i-1, j), g.row(i+1, j)
				c := g.row(i, j)
				for k := range c {
					c[k] = 0.25 * (w[k] + e[k] + s[k] + nn[k])
				}
				flops += int64(4 * n)
			}
		}
		return flops
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			for k := 0; k < n; k++ {
				v := 0.25 * (g.load(i, j-1, k) +
					g.load(i, j+1, k) +
					g.load(i-1, j, k) +
					g.load(i+1, j, k))
				g.store(i, j, k, v)
				flops += 4
			}
		}
	}
	return flops
}

// restrict injects the fine grid into the coarse one by averaging each
// 2x2x2 block of children.
func restrictGrid(fine, coarse *mgGrid) int64 {
	nc := coarse.n
	var flops int64
	if fine.mem.TakesGroups() {
		var row [9]trace.Strided // the eight children, then the store
		fine.initGroup(row[:8], 2)
		coarse.initGroup(row[8:], 1)
		row[8].Write = true
		var kids [4][]float64 // the fine rows, one per (di, dj)
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				for di := 0; di < 2; di++ {
					for dj := 0; dj < 2; dj++ {
						for dk := 0; dk < 2; dk++ {
							row[4*di+2*dj+dk].Off = fine.at(2*i+di, 2*j+dj, dk)
						}
						kids[2*di+dj] = fine.row(2*i+di, 2*j+dj)
					}
				}
				row[8].Off = coarse.at(i, j, 0)
				fine.mem.Strided(row[:], nc)
				c := coarse.row(i, j)
				for k := range c {
					sum := 0.0
					for _, kid := range kids {
						sum += kid[2*k]
						sum += kid[2*k+1]
					}
					c[k] = sum / 8
				}
				flops += int64(8 * nc)
			}
		}
		return flops
	}
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			for k := 0; k < nc; k++ {
				sum := 0.0
				for di := 0; di < 2; di++ {
					for dj := 0; dj < 2; dj++ {
						for dk := 0; dk < 2; dk++ {
							sum += fine.load(2*i+di, 2*j+dj, 2*k+dk)
						}
					}
				}
				coarse.store(i, j, k, sum/8)
				flops += 8
			}
		}
	}
	return flops
}

// prolong adds each coarse cell's value back onto its eight children.
func prolong(coarse, fine *mgGrid) int64 {
	nc := coarse.n
	var flops int64
	if fine.mem.TakesGroups() {
		// The coarse load, then each child's load and store.
		var row [17]trace.Strided
		coarse.initGroup(row[:1], 1)
		fine.initGroup(row[1:], 2)
		for e := 2; e < len(row); e += 2 {
			row[e].Write = true
		}
		var kids [4][]float64 // the fine rows, one per (di, dj)
		for i := 0; i < nc; i++ {
			for j := 0; j < nc; j++ {
				row[0].Off = coarse.at(i, j, 0)
				for di := 0; di < 2; di++ {
					for dj := 0; dj < 2; dj++ {
						for dk := 0; dk < 2; dk++ {
							e := 1 + 2*(4*di+2*dj+dk)
							row[e].Off = fine.at(2*i+di, 2*j+dj, dk)
							row[e+1].Off = row[e].Off
						}
						kids[2*di+dj] = fine.row(2*i+di, 2*j+dj)
					}
				}
				fine.mem.Strided(row[:], nc)
				for k, v := range coarse.row(i, j) {
					for _, kid := range kids {
						kid[2*k] += 0.5 * v
						kid[2*k+1] += 0.5 * v
					}
				}
				flops += int64(8 * nc)
			}
		}
		return flops
	}
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			for k := 0; k < nc; k++ {
				v := coarse.load(i, j, k)
				for di := 0; di < 2; di++ {
					for dj := 0; dj < 2; dj++ {
						for dk := 0; dk < 2; dk++ {
							f := fine.load(2*i+di, 2*j+dj, 2*k+dk)
							fine.store(2*i+di, 2*j+dj, 2*k+dk, f+0.5*v)
							flops++
						}
					}
				}
			}
		}
	}
	return flops
}

// Run executes the configured number of V-cycles.
func (mg *MG) Run(sink trace.Consumer) (*RunInfo, error) {
	return mg.run(sink, nil)
}

// RunInjected implements Injectable: it executes the V-cycles with a
// single bit flip armed against the grid array R.
func (mg *MG) RunInjected(fault Fault, sink trace.Consumer) (*RunInfo, error) {
	if err := fault.Validate(); err != nil {
		return nil, err
	}
	return runGuarded(func() (*RunInfo, error) { return mg.run(sink, &fault) })
}

func (mg *MG) run(sink trace.Consumer, fault *Fault) (*RunInfo, error) {
	if err := mg.Validate(); err != nil {
		return nil, err
	}
	cycles := mg.Cycles
	if cycles == 0 {
		cycles = 1
	}
	sweeps := mg.Smooth
	if sweeps == 0 {
		sweeps = 1
	}
	dims := mgLevels(mg.N)
	offsets, total := mgOffsets(dims)

	data := make([]float64, total)
	var inj *injector
	if fault != nil {
		if fault.Structure != "R" {
			return nil, fmt.Errorf("mg: no injectable structure %q", fault.Structure)
		}
		inj = newInjector(sink, *fault, float64Flipper(data))
		sink = inj
	}
	m := newMemory(sink)
	reg := m.alloc("R", int64(total)*elem8)
	grids := make([]*mgGrid, len(dims))
	for l := range dims {
		grids[l] = &mgGrid{data: data, offset: offsets[l], n: dims[l], reg: reg, mem: m.mem}
	}
	// Deterministic initial field (untraced initialization).
	g0 := grids[0]
	for i := 0; i < g0.n; i++ {
		for j := 0; j < g0.n; j++ {
			for k := 0; k < g0.n; k++ {
				data[g0.idx(i, j, k)] = float64((i*7+j*3+k)%13) / 13
			}
		}
	}

	var flops int64
	for c := 0; c < cycles; c++ {
		// Downward leg: smooth then restrict.
		for l := 0; l < len(grids)-1; l++ {
			for s := 0; s < sweeps; s++ {
				flops += grids[l].smooth()
			}
			flops += restrictGrid(grids[l], grids[l+1])
		}
		// Coarsest solve: extra smoothing.
		for s := 0; s < 2*sweeps; s++ {
			flops += grids[len(grids)-1].smooth()
		}
		// Upward leg: prolong then smooth.
		for l := len(grids) - 2; l >= 0; l-- {
			flops += prolong(grids[l+1], grids[l])
			for s := 0; s < sweeps; s++ {
				flops += grids[l].smooth()
			}
		}
	}

	if inj != nil {
		if err := inj.finish(); err != nil {
			return nil, err
		}
	}
	var checksum float64
	for _, v := range data[:g0.n*g0.n*g0.n] {
		checksum += v
	}
	return &RunInfo{
		Kernel: mg.Name(),
		Structures: []Structure{
			{Name: "R", Bytes: int64(total) * elem8, ID: int32(reg.ID)},
		},
		Refs:  m.mem.Refs(),
		Flops: flops,
		Measured: map[string]float64{
			"n":      float64(mg.N),
			"levels": float64(len(dims)),
			"cycles": float64(cycles),
		},
		Checksum: checksum,
	}, nil
}

// Models returns the template-based model for R: it replays the V-cycle's
// element template (exactly the access order of the pseudocode above)
// through the two-step reuse-distance algorithm of Section III-C, one
// cache-line run of the innermost loop at a time. The template is
// generated lazily per cache configuration, since the block conversion
// depends on the line size.
func (mg *MG) Models(info *RunInfo) ([]ModelSpec, error) {
	if err := mg.Validate(); err != nil {
		return nil, err
	}
	_, total := mgOffsets(mgLevels(mg.N))
	k := *mg
	est := patterns.Func{
		Name:  "template",
		Bytes: int64(total) * elem8,
		F: func(c cache.Config) (float64, error) {
			return float64(k.templateCounts(c).Misses), nil
		},
	}
	return []ModelSpec{{Structure: "R", Estimator: est}}, nil
}

// templateCounts feeds the V-cycle's element template for cache c
// through a template counter and returns its counters: visits as
// accesses, misses and evictions. Two exact shortcuts keep the walk
// short:
//
//   - When every block the template touches fits in the cache, nothing
//     is ever evicted, so the misses are the distinct blocks touched.
//     Those and the visits are counted, not walked (mgFitCounts).
//   - Each phase's plane loop (over i) visits, at plane i+1, plane i's
//     blocks moved by whole planes: n^2 elements for a smooth; 2*nf^2
//     on the fine level and nc^2 on the coarse one for a restrict or a
//     prolong; other levels stay. Once the resident list after a plane
//     is the previous one moved the same way, every later plane repeats
//     it (patterns.BlockCounter.RunShifted). That needs the moves and
//     the levels' bounds to be whole lines; otherwise the planes run.
func (mg *MG) templateCounts(c cache.Config) cache.Stats {
	cycles := mg.Cycles
	if cycles == 0 {
		cycles = 1
	}
	sweeps := mg.Smooth
	if sweeps == 0 {
		sweeps = 1
	}
	dims := mgLevels(mg.N)
	offsets, total := mgOffsets(dims)
	if st, ok := mgFitCounts(dims, offsets, cycles, sweeps, c); ok {
		return st
	}
	line := int64(c.LineSize)
	ctr := patterns.NewBlockCounter(c.Lines(), int(mathx.CeilDiv(int64(total)*elem8, line)))
	// Each phase walks its innermost index k by line runs: the steps
	// for which every element of a k step stays in its line visit one
	// block group again and again (see LineRun).
	run := patterns.NewLineRun(&ctr.TemplateCounter, c.LineSize)
	// add visits elem, which moves stride elements per k step, as part
	// of the step.
	add := func(elem, stride int) {
		run.Add(int64(elem)*elem8, elem8, int64(stride)*elem8)
	}
	// planes runs a phase's n planes, by RunShifted when each move, a
	// level and the elements its blocks move by per plane, and the
	// level's bounds are whole lines.
	var shifts [2]patterns.BlockShift
	planes := func(n int, plane func(i int), moves ...[2]int) {
		for m, mv := range moves {
			l, d := mv[0], int64(mv[1])*elem8
			lo, hi := int64(offsets[l])*elem8, int64(offsets[l]+dims[l]*dims[l]*dims[l])*elem8
			if lo%line != 0 || hi%line != 0 || d%line != 0 {
				for i := range n {
					plane(i)
				}
				return
			}
			shifts[m] = patterns.BlockShift{Lo: lo / line, Hi: hi / line, Delta: d / line}
		}
		ctr.RunShifted(n, shifts[:len(moves)], plane)
	}
	smoothT := func(l int) {
		n := dims[l]
		at := func(i, j, k int) int { return offsets[l] + (i*n+j)*n + k }
		planes(n-2, func(p int) {
			i := p + 1
			for j := 1; j < n-1; j++ {
				for k := 0; k < n; {
					run.Start(n - k)
					add(at(i, j-1, k), 1)
					add(at(i, j+1, k), 1)
					add(at(i-1, j, k), 1)
					add(at(i+1, j, k), 1)
					add(at(i, j, k), 1) // the store
					k += run.End()
				}
			}
		}, [2]int{l, n * n})
	}
	restrictT := func(l int) {
		nc := dims[l+1]
		nf := dims[l]
		atF := func(i, j, k int) int { return offsets[l] + (i*nf+j)*nf + k }
		atC := func(i, j, k int) int { return offsets[l+1] + (i*nc+j)*nc + k }
		planes(nc, func(i int) {
			for j := 0; j < nc; j++ {
				for k := 0; k < nc; {
					run.Start(nc - k)
					for di := 0; di < 2; di++ {
						for dj := 0; dj < 2; dj++ {
							for dk := 0; dk < 2; dk++ {
								add(atF(2*i+di, 2*j+dj, 2*k+dk), 2)
							}
						}
					}
					add(atC(i, j, k), 1)
					k += run.End()
				}
			}
		}, [2]int{l, 2 * nf * nf}, [2]int{l + 1, nc * nc})
	}
	prolongT := func(l int) {
		nc := dims[l+1]
		nf := dims[l]
		atF := func(i, j, k int) int { return offsets[l] + (i*nf+j)*nf + k }
		atC := func(i, j, k int) int { return offsets[l+1] + (i*nc+j)*nc + k }
		planes(nc, func(i int) {
			for j := 0; j < nc; j++ {
				for k := 0; k < nc; {
					run.Start(nc - k)
					add(atC(i, j, k), 1)
					for di := 0; di < 2; di++ {
						for dj := 0; dj < 2; dj++ {
							for dk := 0; dk < 2; dk++ {
								f := atF(2*i+di, 2*j+dj, 2*k+dk)
								add(f, 2) // the load
								add(f, 2) // the store
							}
						}
					}
					k += run.End()
				}
			}
		}, [2]int{l, 2 * nf * nf}, [2]int{l + 1, nc * nc})
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for l := 0; l < len(dims)-1; l++ {
			for s := 0; s < sweeps; s++ {
				smoothT(l)
			}
			restrictT(l)
		}
		for s := 0; s < 2*sweeps; s++ {
			smoothT(len(dims) - 1)
		}
		for l := len(dims) - 2; l >= 0; l-- {
			prolongT(l)
			for s := 0; s < sweeps; s++ {
				smoothT(l)
			}
		}
	}
	return ctr.Stats()
}

// mgFitCounts returns the template's counters on cache c when every
// block it touches fits in the cache: no block is then ever evicted, so
// each distinct block misses once and every other visit hits. Every
// element of R is touched, except with a single level, whose smooth
// never reaches the four corner rows (i, j in {0, n-1}) of the grid.
// An 8-byte element spans 8/LineSize lines when lines are shorter, and
// one otherwise (R is line-aligned). It reports false when the blocks
// do not fit.
func mgFitCounts(dims, offsets []int, cycles, sweeps int, c cache.Config) (cache.Stats, bool) {
	line := int64(c.LineSize)
	var distinct int64
	if len(dims) > 1 {
		last := len(dims) - 1
		distinct = mathx.CeilDiv(int64(offsets[last]+dims[last]*dims[last]*dims[last])*elem8, line)
	} else {
		n := dims[0]
		lastLine := int64(-1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (i == 0 || i == n-1) && (j == 0 || j == n-1) {
					continue
				}
				first, end := int64((i*n+j)*n)*elem8/line, (int64((i*n+j+1)*n)*elem8-1)/line
				distinct += end - max(first, lastLine+1) + 1
				lastLine = end
			}
		}
	}
	if distinct > int64(c.Lines()) {
		return cache.Stats{}, false
	}
	smooth := func(n int) int64 { return 5 * int64(n-2) * int64(n-2) * int64(n) }
	cube := func(n int) int64 { return int64(n) * int64(n) * int64(n) }
	var visits int64
	for l := 0; l < len(dims)-1; l++ {
		// The downward smooths and restrict, then the prolong and the
		// upward smooths.
		visits += 2*int64(sweeps)*smooth(dims[l]) + 9*cube(dims[l+1]) + 17*cube(dims[l+1])
	}
	visits += 2 * int64(sweeps) * smooth(dims[len(dims)-1])
	visits *= int64(cycles) * max(1, elem8/line)
	return cache.Stats{Accesses: visits, Hits: visits - distinct, Misses: distinct}, true
}

// AccessPattern implements PatternSource: the V-cycle phase sequence over
// the level offsets of the single grid array R — per cycle the downward
// smooth/restrict leg, the doubled coarsest-level smoothing, and the
// upward prolong/smooth leg, exactly the order Run traces.
func (mg *MG) AccessPattern() (*analytic.Descriptor, error) {
	if err := mg.Validate(); err != nil {
		return nil, err
	}
	cycles := mg.Cycles
	if cycles == 0 {
		cycles = 1
	}
	sweeps := mg.Smooth
	if sweeps == 0 {
		sweeps = 1
	}
	dims := mgLevels(mg.N)
	offsets, total := mgOffsets(dims)
	var body []analytic.Phase
	smooth := func(l, times int) {
		for s := 0; s < times; s++ {
			body = append(body, analytic.Smooth{Region: "R", Dim: dims[l], OffsetElems: offsets[l]})
		}
	}
	for l := 0; l < len(dims)-1; l++ {
		smooth(l, sweeps)
		body = append(body, analytic.Restrict{
			Region:  "R",
			FineDim: dims[l], CoarseDim: dims[l+1],
			FineOffset: offsets[l], CoarseOffs: offsets[l+1],
		})
	}
	smooth(len(dims)-1, 2*sweeps)
	for l := len(dims) - 2; l >= 0; l-- {
		body = append(body, analytic.Prolong{
			Region:  "R",
			FineDim: dims[l], CoarseDim: dims[l+1],
			FineOffset: offsets[l], CoarseOffs: offsets[l+1],
		})
		smooth(l, sweeps)
	}
	return &analytic.Descriptor{
		Kernel: mg.Name(),
		Regions: []analytic.Region{
			{Name: "R", Bytes: int64(total) * elem8, ElemSize: elem8},
		},
		Phases: []analytic.Phase{analytic.Repeat{Count: cycles, Body: body}},
	}, nil
}
