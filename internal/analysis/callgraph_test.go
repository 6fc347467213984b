package analysis_test

import (
	"go/types"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

func loadCallGraphFixture(t *testing.T) (*analysis.CallGraph, map[string]*analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]*analysis.Package)
	for _, path := range []string{"cgdep", "cg"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs[path] = pkg
	}
	return loader.Program().CallGraph(), pkgs
}

func node(t *testing.T, cg *analysis.CallGraph, pkg *analysis.Package, name string) *analysis.FuncNode {
	t.Helper()
	n := cg.Node(lookupFunc(t, pkg, name))
	if n == nil {
		t.Fatalf("no call-graph node for %s.%s", pkg.Path, name)
	}
	return n
}

// calleeNames flattens a node's resolved edges to callee names, keeping
// call and reference edges separate.
func calleeNames(n *analysis.FuncNode) (calls, refs []string) {
	for _, site := range n.Out {
		if site.Call != nil {
			calls = append(calls, site.Callee.Name())
		} else {
			refs = append(refs, site.Callee.Name())
		}
	}
	return calls, refs
}

func TestCallGraphResolvedEdges(t *testing.T) {
	cg, pkgs := loadCallGraphFixture(t)
	root := node(t, cg, pkgs["cg"], "Root")
	calls, refs := calleeNames(root)
	if len(refs) != 0 {
		t.Errorf("Root should have no reference edges, got %v", refs)
	}
	if len(calls) != 2 || calls[0] != "helper" || calls[1] != "Leaf" {
		t.Errorf("Root calls = %v, want [helper Leaf]", calls)
	}
	// The cross-package edge resolves to the declaration in cgdep, and the
	// graph has a node for it.
	for _, site := range root.Out {
		if site.Callee.Name() == "Leaf" {
			if site.Callee.Pkg().Path() != pkgs["cgdep"].Types.Path() {
				t.Errorf("Leaf resolved in %s, want %s", site.Callee.Pkg().Path(), pkgs["cgdep"].Types.Path())
			}
			if cg.Node(site.Callee) == nil {
				t.Error("cross-package callee has no graph node")
			}
		}
	}
}

func TestCallGraphHotpath(t *testing.T) {
	cg, pkgs := loadCallGraphFixture(t)
	if !node(t, cg, pkgs["cg"], "Root").Hotpath {
		t.Error("Root carries //dvf:hotpath but the node is not marked")
	}
	if node(t, cg, pkgs["cg"], "helper").Hotpath {
		t.Error("helper is not annotated but the node is marked hotpath")
	}
	roots := cg.HotpathRoots()
	if len(roots) != 1 || roots[0].Fn.Name() != "Root" {
		names := make([]string, 0, len(roots))
		for _, r := range roots {
			names = append(names, r.Fn.Name())
		}
		t.Errorf("HotpathRoots = %v, want [Root]", names)
	}
}

// TestCallGraphReferenceEdges: a function or method taken as a value is
// a reference edge (Call == nil) — the graph treats it as a potential
// call without a concrete site.
func TestCallGraphReferenceEdges(t *testing.T) {
	cg, pkgs := loadCallGraphFixture(t)

	_, refs := calleeNames(node(t, cg, pkgs["cg"], "UseValue"))
	if len(refs) != 1 || refs[0] != "helper" {
		t.Errorf("UseValue reference edges = %v, want [helper]", refs)
	}

	mv := node(t, cg, pkgs["cg"], "MethodValue")
	_, refs = calleeNames(mv)
	if len(refs) != 1 || refs[0] != "M" {
		t.Fatalf("MethodValue reference edges = %v, want [M]", refs)
	}
	for _, site := range mv.Out {
		if site.Callee.Name() == "M" {
			sig := site.Callee.Type().(*types.Signature)
			if sig.Recv() == nil {
				t.Error("method-value edge lost its receiver")
			}
		}
	}
}

func TestCallGraphIndirectSites(t *testing.T) {
	cg, pkgs := loadCallGraphFixture(t)

	ind := node(t, cg, pkgs["cg"], "Indirect")
	if len(ind.Indirect) != 1 || ind.Indirect[0].Interface {
		t.Errorf("Indirect sites = %+v, want one non-interface site", ind.Indirect)
	}

	iface := node(t, cg, pkgs["cg"], "Iface")
	if len(iface.Indirect) != 1 || !iface.Indirect[0].Interface {
		t.Errorf("Iface sites = %+v, want one interface-dispatch site", iface.Indirect)
	}
	if calls, _ := calleeNames(iface); len(calls) != 0 {
		t.Errorf("interface dispatch must not produce resolved edges, got %v", calls)
	}
}

// TestCallGraphClosureAttribution: calls inside a function literal are
// attributed to the enclosing declaration, and calling the literal
// through its variable is an indirect site.
func TestCallGraphClosureAttribution(t *testing.T) {
	cg, pkgs := loadCallGraphFixture(t)
	cl := node(t, cg, pkgs["cg"], "Closure")
	calls, _ := calleeNames(cl)
	if len(calls) != 1 || calls[0] != "helper" {
		t.Errorf("Closure resolved calls = %v, want [helper] from the literal body", calls)
	}
	if len(cl.Indirect) != 1 || cl.Indirect[0].Interface {
		t.Errorf("Closure indirect sites = %+v, want one function-value call", cl.Indirect)
	}
}

// reachable is the set of program-declared functions reachable from
// root along resolved edges; an edge into a function for which stop
// returns true is not followed. It is the closure hotalloc's proof walks.
func reachable(g *analysis.CallGraph, root *analysis.FuncNode, stop func(*analysis.FuncNode) bool) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	var visit func(n *analysis.FuncNode)
	visit = func(n *analysis.FuncNode) {
		if out[n.Fn] {
			return
		}
		out[n.Fn] = true
		for _, site := range n.Out {
			callee := g.Node(site.Callee)
			if callee == nil || (stop != nil && stop(callee)) {
				continue
			}
			visit(callee)
		}
	}
	visit(root)
	return out
}

func TestCallGraphReachable(t *testing.T) {
	cg, pkgs := loadCallGraphFixture(t)
	root := node(t, cg, pkgs["cg"], "Root")

	reach := reachable(cg, root, nil)
	for _, want := range []string{"Root", "helper", "Leaf"} {
		found := false
		for fn := range reach {
			if fn.Name() == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Reachable(Root) misses %s", want)
		}
	}

	pruned := reachable(cg, root, func(n *analysis.FuncNode) bool {
		return n.Fn.Name() == "helper"
	})
	for fn := range pruned {
		if fn.Name() == "helper" {
			t.Error("stop predicate did not prune helper")
		}
	}
}
