package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/resilience-models/dvf/internal/analysis"
)

// Unsafemem guards the zero-copy replay path's aliasing contract: the
// v2 decoder reinterprets a memory-mapped file's column bytes as
// []uint64 via unsafe.Slice, so an aliased view outliving its mapping —
// or constructed misaligned — reads freed or torn memory, the exact
// stale-data SDC window the DVF model quantifies. Two syntactic rules:
//
//  1. alignment-guard precondition: every unsafe.Slice aliasing
//     construction must be dominated by an explicit alignment check
//     (`uintptr(unsafe.Pointer(&b[0])) % k == 0`); an unguarded
//     reinterpretation faults on strict architectures and tears on
//     permissive ones;
//  2. no bare escape: an unsafe.Slice view must not be stored in a
//     package-level variable, sent on a channel, or returned directly
//     from an exported function — a view may only travel inside a type
//     that ties it to its backing region (TraceV2 inside TraceFile),
//     never naked where its lifetime dependency is invisible.
//
// The mapping's own lifetime (released on every open path, Close
// idempotent, no replay after Close) has a single owner, trace.TraceFile,
// and is pinned by that type's tests rather than by a flow analysis.
var Unsafemem = &analysis.Analyzer{
	Name: "unsafemem",
	Doc:  "unsafe.Slice views stay inside their backing region's lifetime: alignment-guarded construction, no naked view escapes",
	Run:  runUnsafemem,
}

func runUnsafemem(pass *analysis.Pass) error {
	if !pass.InScope("internal/", "cmd/") {
		return nil
	}
	for _, f := range pass.Files {
		checkUnsafeSlices(pass, f)
	}
	return nil
}

// checkUnsafeSlices enforces both rules on every unsafe.Slice call
// in the file.
func checkUnsafeSlices(pass *analysis.Pass, f *ast.File) {
	var parents map[ast.Node]ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isUnsafeCall(pass.TypesInfo, call, "Slice") {
			return true
		}
		if parents == nil {
			// Built only for files that construct a view: almost none do.
			parents = analysis.Parents(f)
		}
		if !alignmentGuarded(call, parents) {
			pass.Reportf(call.Pos(),
				"unsafe.Slice aliasing construction is not dominated by an alignment guard; check uintptr(unsafe.Pointer(&b[0]))%%k == 0 before reinterpreting the bytes")
		}
		checkViewEscape(pass, call, parents)
		return true
	})
}

// isUnsafeCall matches a call to the named unsafe builtin.
func isUnsafeCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "unsafe"
}

// alignmentGuarded walks outward from the call looking for an enclosing
// if statement whose condition contains an alignment test and whose
// then-branch contains the call.
func alignmentGuarded(call *ast.CallExpr, parents map[ast.Node]ast.Node) bool {
	for n := ast.Node(call); n != nil; n = parents[n] {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		inThen := call.Pos() >= ifStmt.Body.Pos() && call.End() <= ifStmt.Body.End()
		if inThen && condHasAlignmentTest(ifStmt.Cond) {
			return true
		}
	}
	return false
}

// condHasAlignmentTest recognizes `<expr involving unsafe.Pointer or
// uintptr> % k == 0` anywhere inside a condition.
func condHasAlignmentTest(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		rem, ok := ast.Unparen(be.X).(*ast.BinaryExpr)
		if !ok || rem.Op != token.REM {
			return true
		}
		if lit, ok := ast.Unparen(be.Y).(*ast.BasicLit); !ok || lit.Value != "0" {
			return true
		}
		if mentionsUnsafeAddr(rem.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

// mentionsUnsafeAddr reports whether the expression takes an address
// through unsafe.Pointer or a uintptr conversion — the shape of an
// alignment probe.
func mentionsUnsafeAddr(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "Pointer" {
				found = true
				return false
			}
		case *ast.Ident:
			if n.Name == "uintptr" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkViewEscape enforces rule 2 at the construction site: the view's
// immediate destination must not be a package-level variable, a channel
// send, or a direct return from an exported function.
func checkViewEscape(pass *analysis.Pass, call *ast.CallExpr, parents map[ast.Node]ast.Node) {
	// Walk up through parens/conversions to the consuming statement.
	child := ast.Node(call)
	parent := parents[child]
	for {
		if pe, ok := parent.(*ast.ParenExpr); ok {
			child, parent = pe, parents[pe]
			continue
		}
		break
	}
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != child && rhs != child {
				continue
			}
			if i < len(p.Lhs) {
				if id := identOf(p.Lhs[i]); id != nil {
					if v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
						pass.Reportf(call.Pos(),
							"unsafe.Slice view stored in package-level variable %s outlives any backing region; keep views inside the type that owns the backing bytes", id.Name)
					}
				}
			}
		}
	case *ast.SendStmt:
		pass.Reportf(call.Pos(),
			"unsafe.Slice view sent on a channel loses its backing region's lifetime; send the owning container instead")
	case *ast.ReturnStmt:
		if fd := enclosingFuncDecl(child, parents); fd != nil && fd.Name.IsExported() {
			pass.Reportf(call.Pos(),
				"exported function %s returns a naked unsafe.Slice view; wrap it in a type that ties the view to its backing region's lifetime", fd.Name.Name)
		}
	}
}

// identOf unwraps an expression to an identifier, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// enclosingFuncDecl walks parents to the declaration containing n,
// stopping at function literals (their returns are not the
// declaration's).
func enclosingFuncDecl(n ast.Node, parents map[ast.Node]ast.Node) *ast.FuncDecl {
	for ; n != nil; n = parents[n] {
		switch d := n.(type) {
		case *ast.FuncLit:
			return nil
		case *ast.FuncDecl:
			return d
		}
	}
	return nil
}
