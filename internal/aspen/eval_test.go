package aspen

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/mathx"
	"github.com/resilience-models/dvf/internal/patterns"
)

func mustParse(t *testing.T, src string) *Model {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustEval(t *testing.T, src string, opts ...Option) *Evaluation {
	t.Helper()
	m := mustParse(t, src)
	if err := Check(m); err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEvalExprBuiltins(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"ceil(3.2)", 4},
		{"floor(3.8)", 3},
		{"abs(-5)", 5},
		{"log2(8)", 3},
		{"min(3, 1, 2)", 1},
		{"max(3, 1, 2)", 3},
		{"10 % 3", 1},
		{"2 ^ 10", 1024},
	}
	for _, c := range cases {
		m := mustParse(t, "model m { param x = "+c.src+" }")
		vars, err := bindParams(m)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if vars["x"] != c.want {
			t.Errorf("%q = %g, want %g", c.src, vars["x"], c.want)
		}
	}
}

func TestEvalExprErrors(t *testing.T) {
	bad := []string{
		"1/0", "1%0", "log2(0)", "log2(-1)", "undefined_param",
		"ceil(1, 2)", "min(1)", "mystery(1)",
	}
	for _, src := range bad {
		m := mustParse(t, "model m { param x = "+src+" }")
		if _, err := bindParams(m); err == nil {
			t.Errorf("%q: expected evaluation error", src)
		}
	}
}

func TestParamsReferenceEarlierParams(t *testing.T) {
	m := mustParse(t, "model m { param a = 4  param b = a * a }")
	vars, err := bindParams(m)
	if err != nil {
		t.Fatal(err)
	}
	if vars["b"] != 16 {
		t.Errorf("b = %g, want 16", vars["b"])
	}
}

func TestDuplicateParamRejected(t *testing.T) {
	m := mustParse(t, "model m { param a = 1  param a = 2 }")
	if _, err := bindParams(m); err == nil {
		t.Error("duplicate param accepted")
	}
}

// The Aspen VM model must produce exactly the same N_ha as the direct
// patterns API — the DSL is a front end, not a different model.
func TestEvaluateVMMatchesDirectModel(t *testing.T) {
	ev := mustEval(t, vmSource)
	if ev.Cache.Capacity() != 8<<10 {
		t.Fatalf("machine cache capacity = %d, want 8K", ev.Cache.Capacity())
	}
	direct := []patterns.Streaming{
		{ElemSize: 8, Count: 4000, StrideElems: 4, Aligned: true},
		{ElemSize: 8, Count: 2000, StrideElems: 2, Aligned: true},
		{ElemSize: 8, Count: 1000, StrideElems: 1, Aligned: true},
	}
	for i, name := range []string{"A", "B", "C"} {
		want, err := direct[i].MemoryAccesses(ev.Cache)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Structure(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.NHa != want {
			t.Errorf("%s: aspen N_ha %g, direct %g", name, got.NHa, want)
		}
	}
	if ev.Rate != dvf.FIT(5000) {
		t.Errorf("FIT = %g, want 5000", float64(ev.Rate))
	}
	if ev.Total() <= 0 {
		t.Error("DVF_a should be positive")
	}
}

func TestEvaluateRandomModel(t *testing.T) {
	src := `
model nb {
    machine { cache { assoc 4 sets 64 line 32 } }
    data T { size 32*1000  pattern random(1000, 32, 200, 1000, 1.0) }
}`
	ev := mustEval(t, src)
	direct := patterns.Random{N: 1000, ElemSize: 32, K: 200, Iterations: 1000, CacheRatio: 1, Aligned: true}
	want, err := direct.MemoryAccesses(ev.Cache)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := ev.Structure("T")
	if got.NHa != want {
		t.Errorf("aspen random N_ha %g, direct %g", got.NHa, want)
	}
}

func TestEvaluateTemplateRange(t *testing.T) {
	ev := mustEval(t, mgSource)
	r, err := ev.Structure("R")
	if err != nil {
		t.Fatal(err)
	}
	// 10^3 * 8 bytes = 8000 bytes = 250 blocks; the whole grid fits in the
	// 8KB cache, so misses equal the distinct blocks touched.
	if r.NHa <= 0 || r.NHa > 250 {
		t.Errorf("R N_ha = %g, want within (0, 250]", r.NHa)
	}
}

func TestEvaluateTemplateList(t *testing.T) {
	src := `
model m {
    machine { cache { assoc 2 sets 4 line 16 } }
    data X { size 8*100  pattern template(8) { list (0, 2, 4, 0, 2, 4) repeat 2 } }
}`
	ev := mustEval(t, src)
	x, _ := ev.Structure("X")
	// Elements 0,2,4 -> blocks 0,1,2 (8B elems on 16B lines); everything
	// fits in the 8-line cache, so only 3 compulsory misses despite the
	// repetitions.
	if x.NHa != 3 {
		t.Errorf("list template N_ha = %g, want 3", x.NHa)
	}
}

func TestEvaluateTemplateIndexOutOfRange(t *testing.T) {
	src := `
model m {
    machine { cache { assoc 2 sets 4 line 16 } }
    data X { size 8*4  pattern template(8) { list (9) } }
}`
	m := mustParse(t, src)
	if _, err := Evaluate(m); err == nil {
		t.Error("out-of-range template index accepted")
	}
}

func TestEvaluateReuseAutoInterference(t *testing.T) {
	ev := mustEval(t, cgSource)
	// p occurs several times in "r(Ap)p(xp)(Ap)r(rp)"; its auto-derived
	// interference must be smaller than A's full size but positive.
	p, err := ev.Structure("p")
	if err != nil {
		t.Fatal(err)
	}
	if p.NHa <= 0 {
		t.Error("p N_ha should be positive")
	}
	// x appears once per body: interference is everything else.
	x, _ := ev.Structure("x")
	if x.NHa <= 0 {
		t.Error("x N_ha should be positive")
	}
}

func TestEvaluateWithCacheOverride(t *testing.T) {
	small := mustEval(t, vmSource)
	large := mustEval(t, vmSource, WithCache(cache.Large))
	a1, _ := small.Structure("A")
	a2, _ := large.Structure("A")
	if a2.NHa >= a1.NHa {
		t.Errorf("larger lines should reduce streaming accesses: %g vs %g", a2.NHa, a1.NHa)
	}
	if large.Cache.Name != cache.Large.Name {
		t.Error("cache override not applied")
	}
}

func TestEvaluateWithFITOverride(t *testing.T) {
	base := mustEval(t, vmSource)
	prot := mustEval(t, vmSource, WithFIT(dvf.FITChipkill))
	if prot.Total() >= base.Total() {
		t.Errorf("chipkill should slash DVF: %g vs %g", prot.Total(), base.Total())
	}
	ratio := base.Total() / prot.Total()
	want := float64(dvf.FITNoECC) / float64(dvf.FITChipkill)
	if !mathx.ApproxEqual(ratio, want, 1e-9) {
		t.Errorf("DVF ratio %g, want FIT ratio %g", ratio, want)
	}
}

func TestEvaluateExplicitTimeWins(t *testing.T) {
	src := `
model m {
    machine { cache { assoc 2 sets 4 line 16 } memory { fit 1000 } }
    data X { size 800  pattern streaming(8, 100, 1) }
    kernel main { time 2.5  flops 1e9 }
}`
	ev := mustEval(t, src)
	if ev.ExecSeconds != 2.5 {
		t.Errorf("ExecSeconds = %g, want the explicit 2.5", ev.ExecSeconds)
	}
}

func TestEvaluateCostModelTime(t *testing.T) {
	src := `
model m {
    machine { cache { assoc 2 sets 4 line 16 } }
    data X { size 800  pattern streaming(8, 100, 1) }
    kernel main { flops 1000 }
}`
	ev := mustEval(t, src)
	x, _ := ev.Structure("X")
	want := dvf.DefaultCostModel.ExecSeconds(0, x.NHa, 1000)
	if !mathx.ApproxEqual(ev.ExecSeconds, want, 1e-12) {
		t.Errorf("ExecSeconds = %g, want %g", ev.ExecSeconds, want)
	}
}

func TestEvaluateMissingMachineWithoutOverride(t *testing.T) {
	m := mustParse(t, `model m { data X { size 8 pattern streaming(8, 1, 1) } }`)
	if _, err := Evaluate(m); err == nil {
		t.Error("missing machine accepted without override")
	}
	if _, err := Evaluate(m, WithCache(cache.Small)); err != nil {
		t.Errorf("cache override should rescue a machine-less model: %v", err)
	}
}

func TestEvaluationRender(t *testing.T) {
	ev := mustEval(t, vmSource)
	out := ev.Render()
	for _, want := range []string{"model vm", "A", "B", "C", "DVF_a"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestParseOrderSequencing(t *testing.T) {
	seq, err := ParseOrder("r(Ap)p(xp)(Ap)r(rp)", []string{"A", "x", "p", "r"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"r", "A", "p", "p", "x", "p", "A", "p", "r", "r", "p"}
	if len(seq) != len(want) {
		t.Fatalf("seq = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestParseOrderLongestMatch(t *testing.T) {
	seq, err := ParseOrder("AB A B", []string{"A", "B", "AB"})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 || seq[0] != "AB" || seq[1] != "A" || seq[2] != "B" {
		t.Errorf("seq = %v, want [AB A B]", seq)
	}
}

func TestParseOrderUnknownName(t *testing.T) {
	if _, err := ParseOrder("AZ", []string{"A"}); err == nil {
		t.Error("unknown structure accepted in order string")
	}
}

func TestOrderInterference(t *testing.T) {
	sizes := map[string]int64{"A": 1000, "p": 10, "r": 20, "x": 30}
	seq := []string{"r", "A", "p", "p", "x", "p", "A", "p", "r", "r", "p"}
	// p gaps (cyclic): p..p (nothing), p..p (x), p..p (A), p..p (r, r),
	// p..p (r, A). Distinct-size averages: (0 + 30 + 1000 + 20 + 1020)/5.
	interf, occ := orderInterference(seq, "p", sizes)
	if occ != 5 {
		t.Fatalf("occurrences = %d, want 5", occ)
	}
	if interf != (0+30+1000+20+1020)/5 {
		t.Errorf("interference = %d, want %d", interf, int64((0+30+1000+20+1020)/5))
	}
}

func TestOrderInterferenceSingleOccurrence(t *testing.T) {
	sizes := map[string]int64{"A": 100, "x": 7}
	interf, occ := orderInterference([]string{"x", "A", "A"}, "x", sizes)
	if occ != 1 || interf != 100 {
		t.Errorf("single occurrence: interf=%d occ=%d, want 100/1", interf, occ)
	}
}

func TestMachineConfigPublic(t *testing.T) {
	m := mustParse(t, vmSource)
	cfg, rate, err := MachineConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Associativity != 4 || cfg.Sets != 64 || cfg.LineSize != 32 {
		t.Errorf("cache config = %+v", cfg)
	}
	if rate != 5000 {
		t.Errorf("rate = %g", float64(rate))
	}
}

func TestCheckCatchesProblems(t *testing.T) {
	bad := []string{
		`model m { data A { size 8 pattern streaming(8,1,1) } data A { size 8 pattern streaming(8,1,1) } }`,
		`model m { param A = 1 data A { size 8 pattern streaming(8,1,1) } }`,
		`model m { data A { size 8 pattern streaming(8,1,1) } kernel k { flops 1 } kernel k { flops 2 } }`,
		`model m { data A { pattern streaming(8,1,1) } }`,
		`model m { data A { size 8 } }`,
		`model m { data A { size 8 pattern random(10, 8, 1, 1, 2.0) } }`,
		`model m { data A { size 8 pattern reuse(auto, 1) } }`,
		`model m { machine { cache { assoc 0 sets 4 line 16 } } data A { size 8 pattern streaming(8,1,1) } }`,
		`model m { data A { size 8 pattern streaming(8,1,1) } kernel k { order "AZ" } }`,
		`model m { data A { size 8 pattern streaming(8,1,1) } kernel k { flops nope } }`,
	}
	for _, src := range bad {
		m, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q failed unexpectedly: %v", src, err)
		}
		if err := Check(m); err == nil {
			t.Errorf("Check(%q) passed, want error", src)
		}
	}
}

func TestCheckAcceptsGoodModels(t *testing.T) {
	for _, src := range []string{vmSource, mgSource, cgSource} {
		m := mustParse(t, src)
		if err := Check(m); err != nil {
			t.Errorf("Check failed: %v", err)
		}
	}
}

func TestEvalIntRejectsNonInteger(t *testing.T) {
	src := `
model m {
    machine { cache { assoc 2 sets 4 line 16 } }
    data X { size 800  pattern streaming(8.5, 100, 1) }
}`
	m := mustParse(t, src)
	if _, err := Evaluate(m); err == nil {
		t.Error("non-integer element size accepted")
	}
}

func TestEvalNaNGuard(t *testing.T) {
	if v, err := evalExpr(&NumLit{Value: math.NaN()}, nil); err != nil || !math.IsNaN(v) {
		t.Errorf("NaN literal should evaluate to NaN: %g %v", v, err)
	}
}

// TestCacheGeometryBoundedBeforeAllocation: a cache block past
// cache.MaxLines lines is rejected by Check and Evaluate with an error
// positioned on the cache block, before any simulator storage is sized.
func TestCacheGeometryBoundedBeforeAllocation(t *testing.T) {
	m := mustParse(t, `model m {
 data X { size 800 pattern streaming(8, 100, 1) }
 machine { cache { assoc 1 sets 1073741824 line 64 } }
}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	checkErr := Check(m)
	_, evalErr := Evaluate(m)
	runtime.ReadMemStats(&after)
	for _, err := range []error{checkErr, evalErr} {
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "line bound") || se.Pos.Line != 3 {
			t.Errorf("got %v, want a line-bound error positioned on line 3", err)
		}
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the geometry allocated %d bytes, want under 1 MiB", grew)
	}
}

// TestTemplateWorkBoundedBeforeExpansion feeds hundred-byte models whose
// templates ask for far more work than maxTemplateAccesses: a 1e12-element
// range, a range within the limit until its repeat count multiplies it
// past, and one element that spans 2.5e8 cache lines. Evaluate must reject
// each with a positioned error before materializing the work, and Check
// must already reject the two that are too long at any line size.
func TestTemplateWorkBoundedBeforeExpansion(t *testing.T) {
	cases := []struct {
		name, pattern, want string
		checkRejects        bool
	}{
		{"range 1..1e12", `template(8) { dims (1e12) range (R(1)) : 1 : (R(1e12)) }`, "template limit", true},
		{"range x repeats", `template(8) { dims (1e6) range (R(0)) : 1 : (R(999999)) repeat 5 }`, "template limit", true},
		{"wide element", `template(2e9) { list (0) }`, "block-visit limit", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := mustParse(t, `model m {
 machine { cache { assoc 1 sets 1 line 8 } }
 data X { size 8e12 pattern `+c.pattern+` }
}`)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			checkErr := Check(m)
			_, evalErr := Evaluate(m)
			runtime.ReadMemStats(&after)
			errs := []error{evalErr}
			if c.checkRejects {
				errs = append(errs, checkErr)
			}
			for _, err := range errs {
				var se *SyntaxError
				if !errors.As(err, &se) || !strings.Contains(se.Msg, c.want) || se.Pos.Line != 3 {
					t.Errorf("got %v, want a %q error positioned on line 3", err, c.want)
				}
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("rejecting the template allocated %d bytes, want under 1 MiB", grew)
			}
		})
	}
}

// TestTemplateBudgetIsPerModel gives 32 structures one template each of
// 262,144 accesses, a sixteenth of maxTemplateAccesses and so within it
// alone, twice it together. Check must reject the 17th, the first past
// the model's shared budget, with an error positioned on its line, and
// allocate no walk doing so. Evaluate, which walks the first 16, must
// reject the same template.
func TestTemplateBudgetIsPerModel(t *testing.T) {
	var src strings.Builder
	src.WriteString("model m {\n machine { cache { assoc 1 sets 1 line 8 } }\n")
	for i := range 32 {
		fmt.Fprintf(&src, " data X%d { size 8e6 pattern template(8) { dims (1e6) range (R(0)) : 1 : (R(262143)) } }\n", i)
	}
	src.WriteString("}\n")
	m := mustParse(t, src.String())
	const line = 3 + 16 // X16's
	requireAt := func(what string, err error) {
		t.Helper()
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "template limit") || se.Pos.Line != line {
			t.Errorf("%s: got %v, want a template-limit error positioned on line %d", what, err, line)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	checkErr := Check(m)
	runtime.ReadMemStats(&after)
	requireAt("Check", checkErr)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("Check allocated %d bytes, want under 1 MiB", grew)
	}
	_, err := Evaluate(m)
	requireAt("Evaluate", err)
}
