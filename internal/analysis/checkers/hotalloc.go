package checkers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/resilience-models/dvf/internal/analysis"
)

// HotAlloc statically proves //dvf:hotpath functions allocation-free,
// complementing the runtime AllocsPerRun guards (which only observe the
// inputs a test happens to replay). Starting from every annotated
// function declared in the package under analysis, it walks the
// program's call graph — across package boundaries — and flags every
// allocating construct reachable on the way:
//
//   - make, new, append; &T{} and slice/map composite literals;
//   - string concatenation and string<->[]byte/[]rune conversions;
//   - go statements and function literals (closure allocation);
//   - calls into a curated list of allocating stdlib functions
//     (fmt.*, errors.*, strings.Join/Repeat/..., strconv formatting,
//     sort.Slice*);
//   - indirect calls (function values, interface dispatch), which
//     cannot be proven allocation-free and are reported as such.
//
// Two kinds of edges are deliberately not followed. Methods of the
// nil-safe recorder packages (metrics, tracez) are pruned: hotalloc
// verifies the *nil-recorder* configuration — the one the replay
// measurements ship with — where every such call returns at its
// nil-receiver guard (a guard the nilsink checker enforces exists).
// And calls into another //dvf:hotpath function are trusted boundaries:
// that function is verified in its own package, so its findings (and
// audited //dvf:allow exceptions) live next to its code instead of
// repeating at every caller.
//
// Findings inside the analyzed package report at the allocation site;
// an allocation reached in another package reports at the call site
// where the path leaves this package, naming the remote site — that is
// where a //dvf:allow belongs, since the remote package may be hot for
// one caller and cold for another.
var HotAlloc = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "no allocation reachable on a //dvf:hotpath call path (nil-recorder configuration)",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *analysis.Pass) error {
	cg := pass.CallGraph()
	var roots []*analysis.FuncNode
	for _, n := range cg.HotpathRoots() {
		if n.Pkg.Path == pass.Path {
			roots = append(roots, n)
		}
	}
	reported := make(map[token.Pos]bool)
	for _, root := range roots {
		walkHotpath(pass, cg, root, reported)
	}
	return nil
}

// walkHotpath runs one DFS from a hotpath root. Witness is the call site
// in the analyzed package through which the current path left it (NoPos
// while still inside), so foreign findings surface where the developer
// can suppress or fix them.
func walkHotpath(pass *analysis.Pass, cg *analysis.CallGraph, root *analysis.FuncNode, reported map[token.Pos]bool) {
	rootName := funcDisplayName(root.Fn)
	visited := make(map[*types.Func]bool)
	var visit func(n *analysis.FuncNode, witness token.Pos)
	visit = func(n *analysis.FuncNode, witness token.Pos) {
		if visited[n.Fn] {
			return
		}
		visited[n.Fn] = true
		local := n.Pkg.Path == pass.Path
		exempt := panicArgRanges(n.Pkg.Info, n.Decl.Body)
		reportAllocs(pass, n, local, witness, rootName, reported, exempt)
		for _, site := range n.Out {
			if inRanges(exempt, site.Pos) {
				continue // the failure path may allocate freely
			}
			callee := cg.Node(site.Callee)
			if callee == nil {
				reportStdlibAlloc(pass, site, local, witness, rootName, reported)
				continue
			}
			if callee.Hotpath && callee != root {
				continue // audited boundary: verified where it is declared
			}
			if prunedRecorderMethod(site.Callee) {
				continue // nil-recorder configuration: returns at its guard
			}
			next := witness
			if local && callee.Pkg.Path != pass.Path {
				next = site.Pos
			}
			visit(callee, next)
		}
	}
	visit(root, token.NoPos)
}

// prunedRecorderMethod reports whether fn is a method of a nil-safe
// recorder package (metrics, tracez).
func prunedRecorderMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && analysis.ObservabilityPkg(fn.Pkg())
}

// reportAllocs scans one function body for allocating constructs and for
// statically unresolvable calls. Local findings deduplicate on the
// allocation site; foreign findings deduplicate on the witness call
// site, so every departure point into allocating code gets its own
// report even when two hot roots reach the same remote allocation.
func reportAllocs(pass *analysis.Pass, n *analysis.FuncNode, local bool, witness token.Pos, rootName string, reported map[token.Pos]bool, exempt [][2]token.Pos) {
	info := n.Pkg.Info
	report := func(pos token.Pos, what string) {
		if local {
			if reported[pos] {
				return
			}
			reported[pos] = true
			pass.Reportf(pos, "%s on a //dvf:hotpath path from %s; hot paths must not allocate", what, rootName)
		} else if witness.IsValid() && !reported[witness] {
			reported[witness] = true
			pass.Reportf(witness, "call reaches %s in %s at %s on a //dvf:hotpath path from %s",
				what, funcDisplayName(n.Fn), pass.Prog.Fset.Position(pos), rootName)
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.GoStmt:
			report(node.Pos(), "goroutine launch (stack allocation)")
		case *ast.FuncLit:
			report(node.Pos(), "function literal (closure allocation)")
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "composite-literal allocation (&T{...})")
					return false // the literal itself would double-report
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[node]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(node.Pos(), "slice-literal allocation")
				case *types.Map:
					report(node.Pos(), "map-literal allocation")
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isStringExpr(info, node.X) {
				report(node.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if node.Tok == token.ADD_ASSIGN && len(node.Lhs) == 1 && isStringExpr(info, node.Lhs[0]) {
				report(node.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(node.Fun).(*ast.Ident); ok {
				switch info.Uses[id] {
				case types.Universe.Lookup("make"):
					report(node.Pos(), "make allocation")
				case types.Universe.Lookup("new"):
					report(node.Pos(), "new allocation")
				case types.Universe.Lookup("append"):
					report(node.Pos(), "append (may grow its backing array)")
				case types.Universe.Lookup("panic"):
					return false // the failure path may allocate freely
				}
			}
			if what := allocatingConversion(info, node); what != "" {
				report(node.Pos(), what)
			}
		}
		return true
	})
	for _, site := range n.Indirect {
		if inRanges(exempt, site.Pos) {
			continue // the failure path may allocate freely
		}
		pos := site.Pos
		if !local {
			pos = witness
		}
		if !pos.IsValid() || reported[pos] {
			continue
		}
		reported[pos] = true
		kind := "call through a function value"
		if site.Interface {
			kind = "interface method call"
		}
		if local {
			pass.Reportf(pos, "%s on a //dvf:hotpath path from %s cannot be proven allocation-free; call the concrete function or //dvf:allow with a justification", kind, rootName)
		} else {
			pass.Reportf(pos, "call reaches a %s in %s at %s on a //dvf:hotpath path from %s; the target cannot be proven allocation-free",
				kind, funcDisplayName(n.Fn), pass.Prog.Fset.Position(site.Pos), rootName)
		}
	}
}

// panicArgRanges collects the source ranges of panic-call arguments in
// one function body: allocations and call sites inside them are exempt,
// because the failure path may allocate freely.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("panic") {
			for _, a := range call.Args {
				out = append(out, [2]token.Pos{a.Pos(), a.End()})
			}
			return false
		}
		return true
	})
	return out
}

// inRanges reports whether pos falls inside any of the ranges.
func inRanges(rs [][2]token.Pos, pos token.Pos) bool {
	for _, r := range rs {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

// stdlibAllocators is the curated list of standard-library functions the
// checker treats as allocation sites (the call graph cannot descend into
// them; anything not listed is assumed allocation-free, a documented
// soundness gap kept small by the runtime AllocsPerRun guards).
var stdlibAllocators = map[string]map[string]bool{
	"fmt":    nil, // every fmt function allocates
	"errors": nil,
	"strings": {"Join": true, "Repeat": true, "Replace": true, "ReplaceAll": true,
		"Split": true, "SplitN": true, "Fields": true, "Map": true,
		"ToUpper": true, "ToLower": true, "Clone": true},
	"strconv": {"Itoa": true, "FormatInt": true, "FormatUint": true,
		"FormatFloat": true, "Quote": true, "Unquote": true},
	"sort": {"Slice": true, "SliceStable": true},
}

// reportStdlibAlloc flags resolved calls into the curated allocator list.
func reportStdlibAlloc(pass *analysis.Pass, site analysis.CallSite, local bool, witness token.Pos, rootName string, reported map[token.Pos]bool) {
	fn := site.Callee
	if fn.Pkg() == nil {
		return
	}
	names, listed := stdlibAllocators[fn.Pkg().Path()]
	if !listed || (names != nil && !names[fn.Name()]) {
		return
	}
	pos := site.Pos
	if !local {
		pos = witness
	}
	if !pos.IsValid() || reported[pos] {
		return
	}
	reported[pos] = true
	if local {
		pass.Reportf(pos, "call to %s.%s allocates on a //dvf:hotpath path from %s", fn.Pkg().Name(), fn.Name(), rootName)
	} else {
		pass.Reportf(pos, "call path reaches allocating %s.%s at %s on a //dvf:hotpath path from %s",
			fn.Pkg().Name(), fn.Name(), pass.Prog.Fset.Position(site.Pos), rootName)
	}
}

// allocatingConversion matches string<->[]byte and string<->[]rune
// conversions, which copy their operand.
func allocatingConversion(info *types.Info, call *ast.CallExpr) string {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return ""
	}
	dst := tv.Type.Underlying()
	argTV, ok := info.Types[call.Args[0]]
	if !ok {
		return ""
	}
	src := argTV.Type.Underlying()
	if isStringType(dst) && isByteOrRuneSlice(src) {
		return "[]byte/[]rune-to-string conversion (copies)"
	}
	if isByteOrRuneSlice(dst) && isStringType(src) {
		return "string-to-slice conversion (copies)"
	}
	return ""
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isStringType(tv.Type.Underlying())
}

func isStringType(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// funcDisplayName renders pkg.Func or pkg.(Type).Method for messages.
func funcDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = "(" + n.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		parts := strings.Split(fn.Pkg().Path(), "/")
		name = parts[len(parts)-1] + "." + name
	}
	return name
}
