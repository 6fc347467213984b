package aspen

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/mathx"
	"github.com/resilience-models/dvf/internal/patterns"
)

// env holds evaluated parameter bindings.
type env map[string]float64

func evalExpr(e Expr, vars env) (float64, error) {
	switch n := e.(type) {
	case *NumLit:
		return n.Value, nil
	case *VarRef:
		v, ok := vars[n.Name]
		if !ok {
			return 0, errAt(n.Pos, "undefined parameter %q", n.Name)
		}
		return v, nil
	case *Neg:
		v, err := evalExpr(n.Operand, vars)
		return -v, err
	case *BinOp:
		l, err := evalExpr(n.Lhs, vars)
		if err != nil {
			return 0, err
		}
		r, err := evalExpr(n.Rhs, vars)
		if err != nil {
			return 0, err
		}
		switch n.Op {
		case TokPlus:
			return l + r, nil
		case TokMinus:
			return l - r, nil
		case TokStar:
			return l * r, nil
		case TokSlash:
			if r == 0 {
				return 0, errAt(n.Pos, "division by zero")
			}
			return l / r, nil
		case TokPercent:
			if r == 0 {
				return 0, errAt(n.Pos, "modulo by zero")
			}
			return math.Mod(l, r), nil
		case TokCaret:
			return math.Pow(l, r), nil
		default:
			return 0, errAt(n.Pos, "unknown operator")
		}
	case *Call:
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			v, err := evalExpr(a, vars)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return evalBuiltin(n, args)
	}
	return 0, fmt.Errorf("aspen: unknown expression node %T", e)
}

func evalBuiltin(n *Call, args []float64) (float64, error) {
	arity := func(want int) error {
		if len(args) != want {
			return errAt(n.Pos, "%s takes %d argument(s), got %d", n.Name, want, len(args))
		}
		return nil
	}
	switch n.Name {
	case "ceil":
		if err := arity(1); err != nil {
			return 0, err
		}
		return math.Ceil(args[0]), nil
	case "floor":
		if err := arity(1); err != nil {
			return 0, err
		}
		return math.Floor(args[0]), nil
	case "abs":
		if err := arity(1); err != nil {
			return 0, err
		}
		return math.Abs(args[0]), nil
	case "log2":
		if err := arity(1); err != nil {
			return 0, err
		}
		if args[0] <= 0 {
			return 0, errAt(n.Pos, "log2 of non-positive value %g", args[0])
		}
		return math.Log2(args[0]), nil
	case "min", "max":
		if len(args) < 2 {
			return 0, errAt(n.Pos, "%s takes at least 2 arguments", n.Name)
		}
		best := args[0]
		for _, v := range args[1:] {
			if (n.Name == "min" && v < best) || (n.Name == "max" && v > best) {
				best = v
			}
		}
		return best, nil
	}
	return 0, errAt(n.Pos, "unknown function %q", n.Name)
}

// bindParams evaluates the model's parameters in declaration order; later
// parameters may reference earlier ones.
func bindParams(m *Model) (env, error) {
	vars := env{}
	for _, p := range m.Params {
		if _, dup := vars[p.Name]; dup {
			return nil, errAt(p.Pos, "duplicate parameter %q", p.Name)
		}
		v, err := evalExpr(p.Expr, vars)
		if err != nil {
			return nil, err
		}
		vars[p.Name] = v
	}
	return vars, nil
}

func evalInt(e Expr, vars env, what string, pos Pos) (int, error) {
	v, err := evalExpr(e, vars)
	if err != nil {
		return 0, err
	}
	if v < 0 || v != math.Trunc(v) || v > math.MaxInt32 {
		return 0, errAt(pos, "%s must be a non-negative integer, got %g", what, v)
	}
	return int(v), nil
}

// MachineConfig resolves the machine block into a cache geometry and FIT
// rate. A missing memory block defaults to the unprotected Table VII rate.
func MachineConfig(m *Model) (cache.Config, dvf.FIT, error) {
	vars, err := bindParams(m)
	if err != nil {
		return cache.Config{}, 0, err
	}
	return machineConfig(m, vars)
}

func machineConfig(m *Model, vars env) (cache.Config, dvf.FIT, error) {
	if m.Machine == nil || m.Machine.Cache == nil {
		return cache.Config{}, 0, fmt.Errorf("aspen: model %q lacks a machine cache description", m.Name)
	}
	c := m.Machine.Cache
	if c.Assoc == nil || c.Sets == nil || c.Line == nil {
		return cache.Config{}, 0, errAt(c.Pos, "cache block needs assoc, sets and line")
	}
	assoc, err := evalInt(c.Assoc, vars, "cache associativity", c.Pos)
	if err != nil {
		return cache.Config{}, 0, err
	}
	sets, err := evalInt(c.Sets, vars, "cache set count", c.Pos)
	if err != nil {
		return cache.Config{}, 0, err
	}
	line, err := evalInt(c.Line, vars, "cache line size", c.Pos)
	if err != nil {
		return cache.Config{}, 0, err
	}
	cfg := cache.Config{Name: m.Name, Associativity: assoc, Sets: sets, LineSize: line}
	if err := cfg.Validate(); err != nil {
		return cache.Config{}, 0, errAt(c.Pos, "%v", err)
	}
	rate := dvf.FITNoECC
	if m.Machine.Memory != nil {
		f, err := evalExpr(m.Machine.Memory.FIT, vars)
		if err != nil {
			return cache.Config{}, 0, err
		}
		if f < 0 {
			return cache.Config{}, 0, errAt(m.Machine.Memory.Pos, "negative FIT rate %g", f)
		}
		rate = dvf.FIT(f)
	}
	return cfg, rate, nil
}

// StructResult is one data structure's evaluation outcome.
type StructResult struct {
	Name    string
	Pattern string
	Bytes   int64
	NHa     float64
	NError  float64
	DVF     float64
}

// Evaluation is the result of evaluating a model: the resolved machine,
// per-structure N_ha and DVF, and the application DVF_a.
type Evaluation struct {
	Model       string
	Cache       cache.Config
	Rate        dvf.FIT
	ExecSeconds float64
	Structures  []StructResult
}

// Total returns DVF_a.
func (ev *Evaluation) Total() float64 {
	var sum float64
	for _, s := range ev.Structures {
		sum += s.DVF
	}
	return sum
}

// Structure returns the named result.
func (ev *Evaluation) Structure(name string) (StructResult, error) {
	for _, s := range ev.Structures {
		if s.Name == name {
			return s, nil
		}
	}
	return StructResult{}, fmt.Errorf("aspen: evaluation has no structure %q", name)
}

// Render formats the evaluation report.
func (ev *Evaluation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s on %s (FIT=%g, T=%.4g s)\n",
		ev.Model, ev.Cache, float64(ev.Rate), ev.ExecSeconds)
	fmt.Fprintf(&b, "%-8s %-10s %12s %14s %14s\n", "struct", "pattern", "bytes", "N_ha", "DVF")
	for _, s := range ev.Structures {
		fmt.Fprintf(&b, "%-8s %-10s %12d %14.6g %14.6g\n", s.Name, s.Pattern, s.Bytes, s.NHa, s.DVF)
	}
	fmt.Fprintf(&b, "%-8s %-10s %12s %14s %14.6g\n", "DVF_a", "", "", "", ev.Total())
	return b.String()
}

// Option adjusts evaluation.
type Option func(*evalOptions)

type evalOptions struct {
	cacheOverride *cache.Config
	rateOverride  *dvf.FIT
}

// WithCache evaluates against cfg instead of the model's machine block.
func WithCache(cfg cache.Config) Option {
	return func(o *evalOptions) { o.cacheOverride = &cfg }
}

// WithFIT overrides the memory failure rate.
func WithFIT(rate dvf.FIT) Option {
	return func(o *evalOptions) { o.rateOverride = &rate }
}

// Evaluate computes N_ha and DVF for every data structure of the model —
// the full workflow of the paper's Figure 3: user-described application and
// hardware information in, DVF out.
func Evaluate(m *Model, opts ...Option) (*Evaluation, error) {
	var options evalOptions
	for _, o := range opts {
		o(&options)
	}
	vars, err := bindParams(m)
	if err != nil {
		return nil, err
	}
	cfg, rate, err := machineConfig(m, vars)
	if err != nil {
		if options.cacheOverride == nil {
			return nil, err
		}
		rate = dvf.FITNoECC
	}
	if options.cacheOverride != nil {
		cfg = *options.cacheOverride
	}
	if options.rateOverride != nil {
		rate = *options.rateOverride
	}

	ev := &Evaluation{Model: m.Name, Cache: cfg, Rate: rate}
	var totalNHa float64
	budget := int64(maxTemplateAccesses)
	for _, d := range m.Data {
		res, err := evalData(m, d, vars, cfg, &budget)
		if err != nil {
			return nil, err
		}
		ev.Structures = append(ev.Structures, res)
		totalNHa += res.NHa
	}

	// Execution time: explicit kernel times win; otherwise the cost model
	// prices the declared flops plus the modeled memory traffic.
	var flops float64
	var explicit float64
	haveExplicit := false
	for _, k := range m.Kernels {
		if k.Time != nil {
			t, err := evalExpr(k.Time, vars)
			if err != nil {
				return nil, err
			}
			if t < 0 {
				return nil, errAt(k.Pos, "negative kernel time %g", t)
			}
			explicit += t
			haveExplicit = true
		}
		if k.Flops != nil {
			f, err := evalExpr(k.Flops, vars)
			if err != nil {
				return nil, err
			}
			flops += f
		}
	}
	if haveExplicit {
		ev.ExecSeconds = explicit
	} else {
		ev.ExecSeconds = dvf.DefaultCostModel.ExecSeconds(0, totalNHa, flops)
	}

	hours := ev.ExecSeconds / 3600
	for i := range ev.Structures {
		s := &ev.Structures[i]
		s.NError = dvf.NError(rate, hours, s.Bytes)
		s.DVF = s.NError * s.NHa
	}
	return ev, nil
}

// evalData lowers d's pattern and estimates its N_ha on cfg; a
// template's block visits are charged to budget, the model's template
// work left.
func evalData(m *Model, d *Data, vars env, cfg cache.Config, budget *int64) (StructResult, error) {
	if d.Size == nil {
		return StructResult{}, errAt(d.Pos, "data %q lacks a size", d.Name)
	}
	sizeF, err := evalExpr(d.Size, vars)
	if err != nil {
		return StructResult{}, err
	}
	if sizeF < 0 || sizeF != math.Trunc(sizeF) {
		return StructResult{}, errAt(d.Pos, "data %q size must be a non-negative integer, got %g", d.Name, sizeF)
	}
	size := int64(sizeF)
	if d.Pattern == nil {
		return StructResult{}, errAt(d.Pos, "data %q lacks an access pattern", d.Name)
	}
	est, err := lowerPattern(m, d, size, vars, budget)
	if err != nil {
		return StructResult{}, err
	}
	nha, err := est.MemoryAccesses(cfg)
	if err != nil {
		return StructResult{}, fmt.Errorf("aspen: data %q: %w", d.Name, err)
	}
	return StructResult{
		Name:    d.Name,
		Pattern: d.Pattern.patternName(),
		Bytes:   size,
		NHa:     nha,
	}, nil
}

// lowerPattern lowers a pattern clause onto a CGPMAC estimator. A
// template's estimator charges its work to budget.
func lowerPattern(m *Model, d *Data, size int64, vars env, budget *int64) (patterns.Estimator, error) {
	switch p := d.Pattern.(type) {
	case *StreamingPattern:
		elem, err := evalInt(p.ElemSize, vars, "element size", p.Pos)
		if err != nil {
			return nil, err
		}
		count, err := evalInt(p.Count, vars, "element count", p.Pos)
		if err != nil {
			return nil, err
		}
		stride, err := evalInt(p.Stride, vars, "stride", p.Pos)
		if err != nil {
			return nil, err
		}
		repeats := 1
		if p.Repeats != nil {
			repeats, err = evalInt(p.Repeats, vars, "repeat count", p.Pos)
			if err != nil {
				return nil, err
			}
		}
		return patterns.Streaming{
			ElemSize: elem, Count: count, StrideElems: stride,
			Aligned: true, Repeats: repeats,
		}, nil

	case *RandomPattern:
		count, err := evalInt(p.Count, vars, "element count", p.Pos)
		if err != nil {
			return nil, err
		}
		elem, err := evalInt(p.ElemSize, vars, "element size", p.Pos)
		if err != nil {
			return nil, err
		}
		k, err := evalInt(p.K, vars, "visits per iteration (k)", p.Pos)
		if err != nil {
			return nil, err
		}
		iter, err := evalInt(p.Iter, vars, "iteration count", p.Pos)
		if err != nil {
			return nil, err
		}
		ratio, err := evalExpr(p.Ratio, vars)
		if err != nil {
			return nil, err
		}
		return patterns.Random{
			N: count, ElemSize: elem, K: k, Iterations: iter,
			CacheRatio: ratio, Aligned: true,
		}, nil

	case *ReusePattern:
		other, err := resolveInterference(m, d, p, vars)
		if err != nil {
			return nil, err
		}
		reuses, err := evalInt(p.Reuses, vars, "reuse count", p.Pos)
		if err != nil {
			return nil, err
		}
		return patterns.Reuse{
			TargetBytes: size, OtherBytes: other, Reuses: reuses,
		}, nil

	case *TemplatePattern:
		return lowerTemplate(p, size, vars, budget)
	}
	return nil, errAt(d.Pos, "unsupported pattern for data %q", d.Name)
}

// resolveInterference evaluates a reuse pattern's interfering footprint.
// The special expression `auto` derives it from the kernel access-order
// string: the interference for structure X is the aggregate size of the
// distinct other structures appearing between consecutive occurrences of X
// (averaged over the gaps).
func resolveInterference(m *Model, d *Data, p *ReusePattern, vars env) (int64, error) {
	if ref, ok := p.OtherBytes.(*VarRef); !ok || ref.Name != "auto" {
		v, err := evalExpr(p.OtherBytes, vars)
		if err != nil {
			return 0, err
		}
		if v < 0 {
			return 0, errAt(p.Pos, "negative interference size %g", v)
		}
		return int64(v), nil
	}
	order := ""
	for _, k := range m.Kernels {
		if k.Order != "" {
			order = k.Order
			break
		}
	}
	if order == "" {
		return 0, errAt(p.Pos, "reuse(auto, ...) requires a kernel with an order string")
	}
	seq, err := ParseOrder(order, dataNames(m))
	if err != nil {
		return 0, errAt(p.Pos, "bad order string: %v", err)
	}
	sizes := map[string]int64{}
	for _, dd := range m.Data {
		if dd.Size == nil {
			continue
		}
		v, err := evalExpr(dd.Size, vars)
		if err != nil {
			return 0, err
		}
		sizes[dd.Name] = int64(v)
	}
	interf, occurrences := orderInterference(seq, d.Name, sizes)
	if occurrences < 2 {
		return 0, errAt(p.Pos, "reuse(auto, ...): %q occurs fewer than twice in the order string", d.Name)
	}
	return interf, nil
}

func dataNames(m *Model) []string {
	names := make([]string, len(m.Data))
	for i, d := range m.Data {
		names[i] = d.Name
	}
	return names
}

// ParseOrder tokenizes an access-order string like "r(Ap)p(xp)(Ap)r(rp)"
// into the sequence of structure occurrences. Parentheses group phases and
// are ignored for sequencing. Names are matched greedily (longest first),
// so multi-character structure names work when they are unambiguous.
func ParseOrder(order string, names []string) ([]string, error) {
	sorted := make([]string, len(names))
	copy(sorted, names)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) > len(sorted[j]) })
	var seq []string
	i := 0
	for i < len(order) {
		c := order[i]
		if c == '(' || c == ')' || c == ' ' || c == ',' || c == '\t' {
			i++
			continue
		}
		matched := false
		for _, n := range sorted {
			if strings.HasPrefix(order[i:], n) {
				seq = append(seq, n)
				i += len(n)
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("unrecognized structure at %q", order[i:])
		}
	}
	return seq, nil
}

// orderInterference computes the average aggregate size of distinct other
// structures between consecutive occurrences of target, plus the number of
// occurrences of target. The sequence is treated as cyclic (the kernel
// body repeats), so the wrap-around gap counts too.
func orderInterference(seq []string, target string, sizes map[string]int64) (int64, int) {
	var positions []int
	for i, s := range seq {
		if s == target {
			positions = append(positions, i)
		}
	}
	if len(positions) < 2 {
		if len(positions) == 1 {
			// Single occurrence per kernel body: the gap is the whole
			// remaining body (cyclic).
			distinct := map[string]bool{}
			for _, s := range seq {
				if s != target {
					distinct[s] = true
				}
			}
			var total int64
			for name := range distinct {
				total += sizes[name]
			}
			return total, len(positions)
		}
		return 0, len(positions)
	}
	var totalGaps int64
	gaps := 0
	for gi := 0; gi < len(positions); gi++ {
		start := positions[gi]
		end := positions[(gi+1)%len(positions)]
		distinct := map[string]bool{}
		i := (start + 1) % len(seq)
		for i != end {
			if seq[i] != target {
				distinct[seq[i]] = true
			}
			i = (i + 1) % len(seq)
		}
		var gapBytes int64
		for name := range distinct {
			gapBytes += sizes[name]
		}
		totalGaps += gapBytes
		gaps++
	}
	return totalGaps / int64(gaps), len(positions)
}

// lowerTemplate lowers a template pattern onto its walk, then counts
// misses through the two-step algorithm lazily per cache configuration,
// one repeat per patterns.RunPeriods period. The walk must fit in
// budget, the model's template work left, and each count charges its
// block visits to budget before it walks.
func lowerTemplate(p *TemplatePattern, size int64, vars env, budget *int64) (patterns.Estimator, error) {
	elem, err := evalInt(p.ElemSize, vars, "element size", p.Pos)
	if err != nil {
		return nil, err
	}
	if elem == 0 {
		return nil, errAt(p.Pos, "template element size must be positive")
	}
	repeats, err := templateRepeats(p, vars)
	if err != nil {
		return nil, err
	}
	w, err := lowerTemplateWalk(p, vars, repeats, *budget)
	if err != nil {
		return nil, err
	}
	w.elem = int64(elem)
	maxElems := size / w.elem
	if e, ok := w.outside(maxElems); ok {
		if e < 0 {
			return nil, errAt(p.Pos, "template element index %d is negative", e)
		}
		return nil, errAt(p.Pos, "template element index %d exceeds the structure's %d elements", e, maxElems)
	}
	return patterns.Func{
		Name:  "template",
		Bytes: size,
		F: func(cfg cache.Config) (float64, error) {
			// An element wider than a line touches one block per line it
			// spans; bound those visits too (to within the one extra line
			// a misaligned element may touch) before the counter grows a
			// node per block.
			span := mathx.CeilDiv(w.elem, int64(cfg.LineSize))
			work := w.accesses() * int64(w.repeats)
			if work > *budget/span {
				return 0, errAt(p.Pos, "template of %d-byte elements on %d-byte lines exceeds the %d visits left of the model's %d block-visit limit",
					w.elem, cfg.LineSize, *budget, int64(maxTemplateAccesses))
			}
			*budget -= work * span
			misses, _ := w.misses(cfg)
			return float64(misses), nil
		},
	}, nil
}

// templateWalk is a lowered template: its ranged groups, then its
// explicit list, the whole repeated repeats times, over elements of elem
// bytes.
type templateWalk struct {
	groups  []rangeGroup
	list    []int64
	elem    int64
	repeats int
}

// rangeGroup is one ranged group: count steps, where step g touches
// element bases[i] + g*step of every member i, in member order.
type rangeGroup struct {
	bases       []int64
	step, count int64
}

// outside returns an element index of the walk outside [0, maxElems),
// if there is one. A ranged group's indices move by a fixed step, so its
// members' two ends bound them.
func (w *templateWalk) outside(maxElems int64) (int64, bool) {
	for _, g := range w.groups {
		for _, b := range g.bases {
			last := b + (g.count-1)*g.step
			if e := min(b, last); e < 0 {
				return e, true
			}
			if e := max(b, last); e >= maxElems {
				return e, true
			}
		}
	}
	for _, e := range w.list {
		if e < 0 || e >= maxElems {
			return e, true
		}
	}
	return 0, false
}

// accesses returns the element accesses of one repeat.
func (w *templateWalk) accesses() int64 {
	n := int64(len(w.list))
	for _, g := range w.groups {
		n += g.count * int64(len(g.bases))
	}
	return n
}

// misses feeds the walk for cfg through a TemplateCounter and returns
// the walk's misses, and the counter, which holds only the repeats
// simulated. The ranged groups go one line run at a time (see
// patterns.LineRun): the steps for which every member stays in its line
// visit one block group again and again. The list goes element by
// element. Each repeat is one period: once the LRU state repeats, or a
// repeat evicts nothing, the remaining repeats are counted, not
// replayed.
func (w *templateWalk) misses(cfg cache.Config) (int64, *patterns.TemplateCounter) {
	ctr := patterns.NewTemplateCounter(cfg.Lines())
	run := patterns.NewLineRun(ctr, cfg.LineSize)
	counts := patterns.RunPeriods(w.repeats, ctr, func(dst []cache.Stats) []cache.Stats {
		return append(dst, ctr.Stats())
	}, func() {
		for _, g := range w.groups {
			stride := g.step * w.elem
			for s := int64(0); s < g.count; {
				run.Start(int(g.count - s))
				for _, b := range g.bases {
					run.Add((b+s*g.step)*w.elem, w.elem, stride)
				}
				s += int64(run.End())
			}
		}
		for _, e := range w.list {
			run.Start(1)
			run.Add(e*w.elem, w.elem, 0)
			run.End()
		}
	})
	return counts[0].Misses, ctr
}

// templateRepeats evaluates a template's repeat count, 1 when absent.
func templateRepeats(p *TemplatePattern, vars env) (int, error) {
	if p.Repeats == nil {
		return 1, nil
	}
	repeats, err := evalInt(p.Repeats, vars, "repeat count", p.Pos)
	if err != nil {
		return 0, err
	}
	return max(repeats, 1), nil
}

// maxTemplateAccesses bounds the work all of a model's templates may
// ask for together: the sum of their element accesses times their
// repeat counts (the bundled models need at most about 114 thousand).
// Checking it against each range's bounds keeps a hostile range, say
// 1..1e12 in a hundred-byte model, from being materialized before it is
// rejected, and charging every template to one budget keeps many
// templates from multiplying the work.
const maxTemplateAccesses = 1 << 22

// lowerTemplateWalk evaluates a template's ranged groups (in declaration
// order) and explicit list into its walk, with no element size yet. The
// walk's element accesses, replayed repeats times, must stay within
// left, what remains of maxTemplateAccesses; each range's size is
// checked from its bounds before it is kept.
func lowerTemplateWalk(p *TemplatePattern, vars env, repeats int, left int64) (*templateWalk, error) {
	w := &templateWalk{repeats: repeats}
	budget := left / int64(repeats) // accesses one repeat may use
	var used int64
	if len(p.Ranges) > 0 && len(p.Dims) == 0 {
		return nil, errAt(p.Pos, "ranged templates require a dims declaration")
	}
	strides, err := dimStrides(p.Dims, vars)
	if err != nil {
		return nil, err
	}
	for _, r := range p.Ranges {
		from, err := linearizeRefs(r.From, strides, vars)
		if err != nil {
			return nil, err
		}
		to, err := linearizeRefs(r.To, strides, vars)
		if err != nil {
			return nil, err
		}
		stepF, err := evalExpr(r.Step, vars)
		if err != nil {
			return nil, err
		}
		step := int64(stepF)
		if step == 0 {
			return nil, errAt(r.Pos, "range step must be nonzero")
		}
		count := (to[0]-from[0])/step + 1
		if count <= 0 {
			return nil, errAt(r.Pos, "range from %d to %d with step %d is empty", from[0], to[0], step)
		}
		for i := range from {
			if got := (to[i]-from[i])/step + 1; got != count {
				return nil, errAt(r.Pos, "range group members advance unevenly (%d vs %d steps)", count, got)
			}
		}
		if count > (budget-used)/int64(len(from)) {
			return nil, errAt(r.Pos, "range of %d steps x %d references, repeated %d times, exceeds the %d accesses left of the model's %d-access template limit",
				count, len(from), repeats, left, int64(maxTemplateAccesses))
		}
		used += count * int64(len(from))
		w.groups = append(w.groups, rangeGroup{bases: from, step: step, count: count})
	}
	if used+int64(len(p.List)) > budget {
		return nil, errAt(p.Pos, "template of %d accesses, repeated %d times, exceeds the %d accesses left of the model's %d-access template limit",
			used+int64(len(p.List)), repeats, left, int64(maxTemplateAccesses))
	}
	for _, le := range p.List {
		v, err := evalExpr(le, vars)
		if err != nil {
			return nil, err
		}
		w.list = append(w.list, int64(v))
	}
	if used+int64(len(w.list)) == 0 {
		return nil, errAt(p.Pos, "template declares no accesses (need range or list)")
	}
	return w, nil
}

// dimStrides converts dims (n3, n2, n1) into linearization strides
// (n2*n1, n1, 1), the paper's R(i,j,k) = i*n2*n1 + j*n1 + k rule.
func dimStrides(dims []Expr, vars env) ([]int64, error) {
	if len(dims) == 0 {
		return nil, nil
	}
	extents := make([]int64, len(dims))
	for i, d := range dims {
		v, err := evalExpr(d, vars)
		if err != nil {
			return nil, err
		}
		if v < 1 || v != math.Trunc(v) {
			return nil, errAt(d.exprPos(), "dimension extent must be a positive integer, got %g", v)
		}
		extents[i] = int64(v)
	}
	strides := make([]int64, len(dims))
	strides[len(strides)-1] = 1
	for i := len(strides) - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * extents[i+1]
	}
	return strides, nil
}

func linearizeRefs(refs []*Ref, strides []int64, vars env) ([]int64, error) {
	out := make([]int64, len(refs))
	for ri, r := range refs {
		if len(r.Indices) != len(strides) {
			return nil, errAt(r.Pos, "reference has %d indices, dims has %d", len(r.Indices), len(strides))
		}
		var lin int64
		for i, idx := range r.Indices {
			v, err := evalExpr(idx, vars)
			if err != nil {
				return nil, err
			}
			lin += int64(v) * strides[i]
		}
		out[ri] = lin
	}
	return out, nil
}
