package aspen

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/patterns"
)

// flatTemplateMisses is the template model of data d as the DSL states
// it: the ranged groups expanded into one element sequence, then the
// list, every element's blocks visited on their own and every repeat
// walked. The line-run walk Evaluate runs must count the same misses.
func flatTemplateMisses(t *testing.T, m *Model, d *Data, cfg cache.Config) float64 {
	t.Helper()
	vars, err := bindParams(m)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Pattern.(*TemplatePattern)
	elem, err := evalInt(p.ElemSize, vars, "element size", p.Pos)
	if err != nil {
		t.Fatal(err)
	}
	repeats, err := templateRepeats(p, vars)
	if err != nil {
		t.Fatal(err)
	}
	w, err := lowerTemplateWalk(p, vars, repeats)
	if err != nil {
		t.Fatal(err)
	}
	var elems []int64
	for _, g := range w.groups {
		for s := int64(0); s < g.count; s++ {
			for _, b := range g.bases {
				elems = append(elems, b+s*g.step)
			}
		}
	}
	elems = append(elems, w.list...)
	ctr := patterns.NewTemplateCounter(cfg.Lines(), false)
	size, line := int64(elem), int64(cfg.LineSize)
	for range repeats {
		for _, e := range elems {
			for b := e * size / line; b <= (e*size+size-1)/line; b++ {
				ctr.Visit(b)
			}
		}
	}
	return float64(ctr.Misses())
}

// requireTemplatesMatchFlat fails unless every template structure of an
// evaluation of m on cfg has the flattened walk's N_ha, and returns how
// many it compared.
func requireTemplatesMatchFlat(t *testing.T, m *Model, ev *Evaluation, cfg cache.Config) int {
	t.Helper()
	compared := 0
	for _, d := range m.Data {
		if _, ok := d.Pattern.(*TemplatePattern); !ok {
			continue
		}
		got, err := ev.Structure(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := flatTemplateMisses(t, m, d, cfg); got.NHa != want {
			t.Errorf("%s on %s: line-run N_ha %g, flattened walk %g", d.Name, cfg, got.NHa, want)
		}
		compared++
	}
	return compared
}

// TestTemplateLineRunsMatchFlattenedWalk evaluates every testdata model
// on every Table IV geometry and checks each template structure against
// the flattened walk.
func TestTemplateLineRunsMatchFlattenedWalk(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.aspen"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("found %d testdata models, want 7", len(files))
	}
	compared := 0
	for _, f := range files {
		m, _ := readModel(t, filepath.Base(f))
		for _, cfg := range append(cache.VerificationConfigs(), cache.ProfilingConfigs()...) {
			ev, err := Evaluate(m, WithCache(cfg))
			if err != nil {
				t.Fatalf("%s on %s: %v", f, cfg.Name, err)
			}
			compared += requireTemplatesMatchFlat(t, m, ev, cfg)
		}
	}
	if compared == 0 {
		t.Fatal("no testdata model has a template structure")
	}
}

// TestTemplateRepeatThatFitsRunsOnce: fft.aspen's 32 KB array fits the
// 8MB cache, so its first pass evicts nothing and is the only one of
// the 12 simulated; the count equals the flattened walk's.
func TestTemplateRepeatThatFitsRunsOnce(t *testing.T) {
	m, _ := readModel(t, "fft.aspen")
	vars, err := bindParams(m)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Data[0].Pattern.(*TemplatePattern)
	w, err := lowerTemplateWalk(p, vars, 12)
	if err != nil {
		t.Fatal(err)
	}
	w.elem = 16
	misses, ctr := w.misses(cache.Profile8MB)
	if want := flatTemplateMisses(t, m, m.Data[0], cache.Profile8MB); float64(misses) != want {
		t.Errorf("misses %d, flattened walk %g", misses, want)
	}
	if pass := w.accesses(); ctr.Visits() != pass {
		t.Errorf("%d visits simulated, want one pass of %d", ctr.Visits(), pass)
	}
}

// TestTemplateIndexBoundWithoutWholeElement: a structure smaller than
// one element holds no element, so every template index is out of
// range, as it is for a zero-sized structure.
func TestTemplateIndexBoundWithoutWholeElement(t *testing.T) {
	for _, size := range []string{"0", "4", "8"} {
		m := mustParse(t, `model m {
 machine { cache { assoc 4 sets 64 line 32 } }
 data X { size `+size+` pattern template(8) { dims (100000) range (R(0)) : 1 : (R(99999)) } }
}`)
		_, err := Evaluate(m)
		var se *SyntaxError
		if !errors.As(err, &se) || !strings.Contains(se.Msg, "exceeds the structure's") {
			t.Errorf("size %s: got %v, want an index-bound error", size, err)
		}
	}
}

// aspenSeeds returns the testdata models and the model sources the
// examples embed as raw string literals.
func aspenSeeds(f *testing.F) []string {
	var seeds []string
	files, err := filepath.Glob(filepath.Join("testdata", "*.aspen"))
	if err != nil {
		f.Fatal(err)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range append(files, examples...) {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		if strings.HasSuffix(name, ".aspen") {
			seeds = append(seeds, string(raw))
			continue
		}
		for i, lit := range strings.Split(string(raw), "`") {
			if i%2 == 1 && strings.Contains(lit, "model ") {
				seeds = append(seeds, lit)
			}
		}
	}
	return seeds
}

// FuzzAspenEvaluate drives the compiler end to end on fuzzed source:
// Parse, Check and Evaluate each return an error or a result and never
// panic, and every template structure of a successful evaluation has
// the flattened walk's N_ha. The seeds are the testdata models and the
// examples' embedded models, plus a template on a structure smaller than
// one element.
func FuzzAspenEvaluate(f *testing.F) {
	for _, src := range aspenSeeds(f) {
		f.Add(src)
	}
	f.Add(`model m { machine { cache { assoc 4 sets 64 line 32 } } data X { size 4 pattern template(8) { dims (99) range (R(0)) : 1 : (R(98)) } } }`)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil {
			return
		}
		_ = Check(m)
		ev, err := Evaluate(m)
		if err != nil {
			return
		}
		requireTemplatesMatchFlat(t, m, ev, ev.Cache)
	})
}
