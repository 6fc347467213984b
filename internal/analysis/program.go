package analysis

import (
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// Program is the whole-program view the interprocedural layer works on:
// every module-local (and testdata-root) package the Loader has
// materialized with ASTs, plus lazily built, memoized facts — the call
// graph, the //dvf:hotpath annotation set and the per-function
// clock-taint summaries. One Program is shared by every Pass of a run;
// its accessors are safe for concurrent use by the parallel driver.
type Program struct {
	Fset *token.FileSet

	pkgs map[string]*Package

	cgOnce sync.Once
	cg     *CallGraph

	// Clock-taint summaries, computed per package in dependency order
	// under factsMu (coarse on purpose: summary computation is cheap next
	// to type-checking, and one lock keeps the recursive dependency walk
	// trivially deadlock-free).
	factsMu    sync.Mutex
	clockDone  map[*Package]bool
	clockTaint map[*types.Func]TaintVec
}

// NewProgram builds a Program over the given packages (typically
// Loader.Program's snapshot of everything loaded).
func NewProgram(fset *token.FileSet, pkgs []*Package) *Program {
	m := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		m[p.Path] = p
	}
	return &Program{
		Fset:       fset,
		pkgs:       m,
		clockDone:  make(map[*Package]bool),
		clockTaint: make(map[*types.Func]TaintVec),
	}
}

// Package returns the loaded package with the given path, or nil.
func (p *Program) Package(path string) *Package { return p.pkgs[path] }

// Packages returns every package of the program in path order.
func (p *Program) Packages() []*Package {
	out := make([]*Package, 0, len(p.pkgs))
	for _, pkg := range p.pkgs {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// LocalImports returns the program-local packages pkg imports directly,
// in path order.
func (p *Program) LocalImports(pkg *Package) []*Package {
	var out []*Package
	for _, imp := range pkg.Types.Imports() {
		if dep, ok := p.pkgs[imp.Path()]; ok {
			out = append(out, dep)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// DepOrder returns the given packages topologically sorted so that every
// package appears after all of its program-local imports. Packages
// outside targets but inside the program are not included.
func (p *Program) DepOrder(targets []*Package) []*Package {
	inTargets := make(map[*Package]bool, len(targets))
	for _, t := range targets {
		inTargets[t] = true
	}
	var out []*Package
	visited := make(map[*Package]bool)
	var visit func(pkg *Package)
	visit = func(pkg *Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, dep := range p.LocalImports(pkg) {
			visit(dep)
		}
		if inTargets[pkg] {
			out = append(out, pkg)
		}
	}
	// Deterministic root order regardless of caller order.
	sorted := append([]*Package(nil), targets...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	for _, t := range sorted {
		visit(t)
	}
	return out
}

// ObservabilityPkg reports whether tp is one of the nil-safe recorder
// packages (metrics, tracez): the sanctioned observability sinks whose
// handle methods are nil-guarded (nilsink rule 2) and own the clock.
// Interprocedural checkers treat calls into them as boundaries: hotalloc
// assumes the nil-recorder configuration, and the clock-taint summaries
// do not propagate out of them.
func ObservabilityPkg(tp *types.Package) bool {
	if tp == nil {
		return false
	}
	name := tp.Name()
	return name == "metrics" || name == "tracez"
}
