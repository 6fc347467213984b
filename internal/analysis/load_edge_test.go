package analysis_test

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

// writeModule materializes a synthetic single-package module in a temp
// directory and returns a loader rooted at it. The package's import path
// is the module path itself ("edge").
func writeModule(t *testing.T, files map[string]string) *analysis.Loader {
	t.Helper()
	dir := t.TempDir()
	all := map[string]string{"go.mod": "module edge\n\ngo 1.22\n"}
	for name, src := range files {
		all[name] = src
	}
	for name, src := range all {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// nodeByName finds the call-graph node of a function or method declared
// in pkg by bare name.
func nodeByName(t *testing.T, cg *analysis.CallGraph, pkg *analysis.Package, name string) *analysis.FuncNode {
	t.Helper()
	for _, obj := range pkg.Info.Defs {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Name() != name {
			continue
		}
		if n := cg.Node(fn); n != nil {
			return n
		}
	}
	t.Fatalf("no call-graph node for %s", name)
	return nil
}

// TestLoaderGenericFunctions type-checks generic declarations and their
// instantiations: the loader's types.Config must flow type parameters
// like the real build, and the call graph must attribute calls of an
// instantiated generic function or method to its (single) declaration.
func TestLoaderGenericFunctions(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"gen.go": `package edge

// Map is a plain generic function.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Pair is a generic type with a method.
type Pair[A, B any] struct {
	First  A
	Second B
}

func (p Pair[A, B]) Swap() Pair[B, A] { return Pair[B, A]{p.Second, p.First} }

func UseGenerics() int {
	doubled := Map([]int{1, 2, 3}, func(x int) int { return 2 * x })
	p := Pair[int, string]{First: doubled[0], Second: "x"}
	q := p.Swap()
	_ = q
	return doubled[2]
}
`,
	})
	pkg, err := loader.Load("edge")
	if err != nil {
		t.Fatal(err)
	}
	scope := pkg.Types.Scope()
	for _, name := range []string{"Map", "Pair", "UseGenerics"} {
		if scope.Lookup(name) == nil {
			t.Errorf("generic declaration %s missing from package scope", name)
		}
	}

	cg := loader.Program().CallGraph()
	use := nodeByName(t, cg, pkg, "UseGenerics")
	resolved := map[string]bool{}
	for _, site := range use.Out {
		resolved[site.Callee.Name()] = true
	}
	for _, callee := range []string{"Map", "Swap"} {
		if !resolved[callee] {
			t.Errorf("call to generic %s not resolved in UseGenerics's edges (got %v)", callee, resolved)
		}
	}
	// The instantiated callee must map back to the declared node — that is
	// what lets hotalloc walk through generic helpers.
	for _, site := range use.Out {
		if site.Callee.Name() != "Map" {
			continue
		}
		if cg.Node(site.Callee) == nil {
			t.Errorf("instantiated Map edge does not resolve to the declared node")
		}
	}
}

// TestLoaderBuildTagExcludedFiles proves file selection happens before
// parsing: a build-tag-gated file full of code that cannot type-check is
// invisible under the default context, and becomes part of the package
// when SetBuildContext enables its tag. A GOOS-gated sibling behaves the
// same way under a pinned GOOS.
func TestLoaderBuildTagExcludedFiles(t *testing.T) {
	files := map[string]string{
		"base.go": `package edge

// Base is always compiled.
func Base() int { return 1 }
`,
		"extra_tagged.go": `//go:build extratag

package edge

// Extra only exists under -tags extratag. The undefined reference makes
// any accidental inclusion a loud type error rather than a silent pass.
func Extra() int { return Base() + 1 }
`,
		"plan9_only_plan9.go": `package edge

// PlanNine is selected only when GOOS=plan9 (by file-name convention).
func PlanNine() int { return 9 }
`,
	}

	t.Run("default context excludes", func(t *testing.T) {
		loader := writeModule(t, files)
		pkg, err := loader.Load("edge")
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg.Files) != 1 {
			t.Errorf("want 1 file under the default context, got %d", len(pkg.Files))
		}
		scope := pkg.Types.Scope()
		if scope.Lookup("Extra") != nil {
			t.Error("tag-gated Extra leaked into the default build")
		}
		if scope.Lookup("PlanNine") != nil {
			t.Error("GOOS-gated PlanNine leaked into the default build")
		}
	})

	t.Run("tag includes", func(t *testing.T) {
		loader := writeModule(t, files)
		loader.SetBuildContext("", "", []string{"extratag"})
		pkg, err := loader.Load("edge")
		if err != nil {
			t.Fatal(err)
		}
		if pkg.Types.Scope().Lookup("Extra") == nil {
			t.Error("Extra missing with -tags extratag")
		}
	})

	t.Run("goos includes", func(t *testing.T) {
		loader := writeModule(t, files)
		loader.SetBuildContext("plan9", "amd64", nil)
		pkg, err := loader.Load("edge")
		if err != nil {
			t.Fatal(err)
		}
		if pkg.Types.Scope().Lookup("PlanNine") == nil {
			t.Error("PlanNine missing under GOOS=plan9")
		}
	})
}

// TestCallGraphMethodValues pins how method values flow through the call
// graph: using m.Method as a value (not calling it) records a reference
// edge — CallSite with a nil Call — and reachability follows it, so a
// hotpath function that hands a method value to a worker still drags the
// method into the proof obligation.
func TestCallGraphMethodValues(t *testing.T) {
	loader := writeModule(t, map[string]string{
		"mv.go": `package edge

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

func (c *Counter) Reset() { c.n = 0 }

// HandOff takes a method value; Inc is referenced, never called here.
func HandOff(c *Counter) func() {
	f := c.Inc
	return f
}
`,
	})
	pkg, err := loader.Load("edge")
	if err != nil {
		t.Fatal(err)
	}
	cg := loader.Program().CallGraph()
	hand := nodeByName(t, cg, pkg, "HandOff")

	var incEdge *analysis.CallSite
	for i, site := range hand.Out {
		if site.Callee.Name() == "Inc" {
			incEdge = &hand.Out[i]
		}
		if site.Callee.Name() == "Reset" {
			t.Errorf("Reset was never referenced but has an edge from HandOff")
		}
	}
	if incEdge == nil {
		t.Fatal("method value c.Inc produced no edge from HandOff")
	}
	if incEdge.Call != nil {
		t.Error("method-value edge should be a reference edge (nil Call)")
	}

	reach := reachable(cg, hand, nil)
	foundInc := false
	for fn := range reach {
		if fn.Name() == "Inc" {
			foundInc = true
		}
		if fn.Name() == "Reset" {
			t.Error("Reset reachable from HandOff despite never being referenced")
		}
	}
	if !foundInc {
		t.Error("Inc not reachable from HandOff through its method-value reference")
	}
}
