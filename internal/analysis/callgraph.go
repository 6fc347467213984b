package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is the program-level static call graph: one node per function
// declaration in the program, one edge per resolvable call or function
// reference. Calls that cannot be resolved statically (values of function
// type, interface method dispatch) appear as Indirect sites so checkers
// can account for the blind spot instead of silently ignoring it.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
}

// FuncNode is one declared function or method of the program.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	File *ast.File
	Decl *ast.FuncDecl
	// Out holds the resolved outgoing edges in source order.
	Out []CallSite
	// Indirect holds the call sites whose target is not statically known:
	// calls through function values and interface method calls.
	Indirect []IndirectSite
	// Hotpath is set when the declaration carries a //dvf:hotpath
	// annotation (in or directly above its doc comment).
	Hotpath bool
}

// CallSite is one resolved edge of the call graph.
type CallSite struct {
	Callee *types.Func
	// Call is the call expression, or nil for a reference edge — the
	// function was used as a value (method value, function value passed
	// along), which the graph treats as a potential call.
	Call *ast.CallExpr
	Pos  token.Pos
}

// IndirectSite is a call whose target cannot be resolved statically.
type IndirectSite struct {
	Call *ast.CallExpr
	Pos  token.Pos
	// Interface is true for interface method dispatch, false for a plain
	// function-value call.
	Interface bool
}

// hotpathPrefix marks a function declaration as a replay hot path: the
// hotalloc checker statically proves every call path from it free of
// allocations (under the nil-recorder assumption; see that checker).
const hotpathPrefix = "//dvf:hotpath"

// CallGraph builds (once) and returns the program's call graph.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() {
		cg := &CallGraph{nodes: make(map[*types.Func]*FuncNode)}
		for _, pkg := range p.Packages() {
			cg.addPackage(pkg)
		}
		p.cg = cg
	})
	return p.cg
}

// Node returns the graph node for fn, or nil when fn is not declared in
// the program (stdlib, interface methods).
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.nodes[fn] }

// HotpathRoots returns every //dvf:hotpath-annotated function of the
// program, in stable position order.
func (g *CallGraph) HotpathRoots() []*FuncNode {
	var out []*FuncNode
	for _, n := range g.nodes {
		if n.Hotpath {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Decl.Pos() < out[j].Decl.Pos()
	})
	return out
}

func (g *CallGraph) addPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := &FuncNode{
				Fn:      fn,
				Pkg:     pkg,
				File:    f,
				Decl:    fd,
				Hotpath: isHotpathDecl(fd),
			}
			g.nodes[fn] = node
			g.addEdges(pkg, node, fd.Body)
		}
	}
}

// addEdges walks one function body (closure bodies included: a func
// literal's calls are attributed to the enclosing declaration, a sound
// over-approximation for reachability) and records every resolved call,
// every function referenced as a value, and every indirect call.
func (g *CallGraph) addEdges(pkg *Package, node *FuncNode, body ast.Node) {
	// Identifiers that are the operator of a call expression; any other
	// use of a function-typed identifier is a reference edge.
	callTargets := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			callTargets[fun] = true
		case *ast.SelectorExpr:
			callTargets[fun.Sel] = true
		}
		if callee := CalleeFunc(pkg.Info, call); callee != nil {
			// An interface method resolves to the abstract *types.Func, not
			// to any implementation: that is dynamic dispatch, not a
			// resolved edge.
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				node.Indirect = append(node.Indirect, IndirectSite{Call: call, Pos: call.Pos(), Interface: true})
				return true
			}
			node.Out = append(node.Out, CallSite{Callee: callee, Call: call, Pos: call.Pos()})
			return true
		}
		// Not a resolvable function or method: a conversion, a builtin, or
		// an indirect call. Conversions are types and builtins are flagged
		// as such in TypeAndValue (go/types records a call-specific
		// *Signature as a builtin's type, so the type alone cannot tell a
		// builtin from a function value); everything else with function
		// type is an indirect site.
		if tv, ok := pkg.Info.Types[call.Fun]; ok && !tv.IsBuiltin() && !tv.IsType() {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				node.Indirect = append(node.Indirect, IndirectSite{
					Call:      call,
					Pos:       call.Pos(),
					Interface: isInterfaceDispatch(pkg.Info, call),
				})
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callTargets[id] {
			return true
		}
		if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
			node.Out = append(node.Out, CallSite{Callee: fn, Pos: id.Pos()})
		}
		return true
	})
}

// isInterfaceDispatch reports whether call is a method call through an
// interface value.
func isInterfaceDispatch(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	_, isIface := s.Recv().Underlying().(*types.Interface)
	return isIface
}

// isHotpathDecl reports whether the declaration's doc comment carries a
// //dvf:hotpath directive.
func isHotpathDecl(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, hotpathPrefix) {
			return true
		}
	}
	return false
}
