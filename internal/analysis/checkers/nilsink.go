// Package checkers holds the project-specific analyzers dvf-lint runs:
// each one mechanically enforces an invariant the repository otherwise
// guards only with dynamic tests (differential replay, golden CSVs, race
// and fuzz targets). See the individual analyzer docs for the contract
// each protects.
package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/resilience-models/dvf/internal/analysis"
)

// NilSink enforces the zero-overhead observability contract from
// DESIGN.md: the handles of the packages named "metrics" or "tracez" are
// nil-able, so every exported method with a pointer receiver must be
// nil-safe: either a `receiver == nil` guard appears before any other
// use of the receiver, or the body only invokes further methods on the
// receiver (delegation like Inc → Add), which are themselves checked.
// Callers then pass a nil sink or recorder (the zero experiments.Env)
// to switch observability off at no cost.
var NilSink = &analysis.Analyzer{
	Name: "nilsink",
	Doc:  "exported pointer-receiver methods in metrics and tracez need nil-receiver guards",
	Run:  runNilSink,
}

func runNilSink(pass *analysis.Pass) error {
	switch pass.Pkg.Name() {
	case "metrics", "tracez":
		checkNilGuards(pass)
	}
	return nil
}

// checkNilGuards verifies the nil-receiver rule over every exported
// pointer-receiver method of the package.
func checkNilGuards(pass *analysis.Pass) {
	for _, d := range pass.FuncDecls() {
		fd := d.Decl
		if fd.Recv == nil || len(fd.Recv.List) == 0 || !fd.Name.IsExported() {
			continue
		}
		if _, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok {
			continue // value receivers copy; nil cannot reach them
		}
		if len(fd.Recv.List[0].Names) == 0 {
			pass.Reportf(fd.Name.Pos(),
				"method %s has an unnamed pointer receiver and therefore no nil-receiver guard", fd.Name.Name)
			continue
		}
		recv := pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
		if recv == nil {
			continue
		}
		if !nilSafeBody(pass, fd, recv) {
			pass.Reportf(fd.Name.Pos(),
				"exported method %s on pointer receiver must start with a nil-receiver guard (or only delegate to methods on the receiver)", fd.Name.Name)
		}
	}
}

// nilSafeBody implements the nil-receiver body shape check.
func nilSafeBody(pass *analysis.Pass, fd *ast.FuncDecl, recv types.Object) bool {
	parents := analysis.Parents(fd)
	guardPos := guardPosition(pass, fd, recv)
	safe := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !safe {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != recv {
			return true
		}
		if guardPos.IsValid() && id.Pos() > guardPos {
			return true // after the guard every use is safe
		}
		if useIsNilComparison(parents, id) || useIsMethodDispatch(pass, parents, id) {
			return true
		}
		safe = false
		return false
	})
	return safe
}

// guardPosition returns the end position of the first `recv == nil`
// comparison inside a top-level if statement whose body returns, or
// NoPos. Receiver uses past that position are safe: the nil case has
// already short-circuited the condition or exited the function.
func guardPosition(pass *analysis.Pass, fd *ast.FuncDecl, recv types.Object) token.Pos {
	for _, stmt := range fd.Body.List {
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok {
			continue
		}
		if n := len(ifs.Body.List); n == 0 {
			continue
		} else if _, returns := ifs.Body.List[n-1].(*ast.ReturnStmt); !returns {
			continue
		}
		guard := token.NoPos
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if be, ok := n.(*ast.BinaryExpr); ok && be.Op == token.EQL {
				x, xo := ast.Unparen(be.X).(*ast.Ident)
				y, yo := ast.Unparen(be.Y).(*ast.Ident)
				if (xo && pass.TypesInfo.Uses[x] == recv && yo && y.Name == "nil") ||
					(yo && pass.TypesInfo.Uses[y] == recv && xo && x.Name == "nil") {
					guard = be.End()
				}
			}
			return guard == token.NoPos
		})
		if guard.IsValid() {
			return guard
		}
	}
	return token.NoPos
}

// useIsNilComparison reports whether the identifier only participates in
// a `recv == nil` / `recv != nil` comparison.
func useIsNilComparison(parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	p := parents[id]
	if pe, ok := p.(*ast.ParenExpr); ok {
		p = parents[pe]
	}
	be, ok := p.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	op := be.Op.String()
	return op == "==" || op == "!="
}

// useIsMethodDispatch reports whether the identifier is the receiver of a
// method call (nil method dispatch is safe: the callee guards).
func useIsMethodDispatch(pass *analysis.Pass, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	sel, ok := parents[id].(*ast.SelectorExpr)
	if !ok || sel.X != id {
		return false
	}
	call, ok := parents[sel].(*ast.CallExpr)
	if !ok || call.Fun != sel {
		return false
	}
	s, ok := pass.TypesInfo.Selections[sel]
	return ok && s.Kind() == types.MethodVal
}
