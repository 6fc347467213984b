package analysis

import (
	"go/ast"
	"go/types"
)

// TaintVec is one point of the clock-taint lattice: a bit set describing
// which inputs of a function make its result wall-clock-derived. The
// lattice is the powerset of {const, recv, param0..param61} ordered by
// inclusion; join is bitwise OR, bottom is 0 (clean). A function's
// summary is the vector of its result: the const bit means the result is
// tainted unconditionally (the body reads the clock itself), a param bit
// means the result is tainted whenever that argument is, and the recv
// bit the same for the receiver. Summaries compose at call sites by
// substituting the actual-argument vectors for the parameter bits, which
// is what lets taint cross function and package boundaries without
// re-analyzing callee bodies.
type TaintVec uint64

const (
	// TaintConst: tainted regardless of inputs (the function or
	// expression reads the wall clock itself, directly or transitively).
	TaintConst TaintVec = 1 << 63
	// TaintRecv: tainted when the method receiver is.
	TaintRecv TaintVec = 1 << 62
	// taintMaxParams bounds the per-parameter bits; parameters beyond the
	// bound are conservatively folded into the last bit.
	taintMaxParams = 62
)

// ConstTainted reports unconditional taint.
func (v TaintVec) ConstTainted() bool { return v&TaintConst != 0 }

// paramBit returns the lattice bit for parameter i.
func paramBit(i int) TaintVec {
	if i >= taintMaxParams {
		i = taintMaxParams - 1
	}
	return 1 << uint(i)
}

// ClockSummary returns fn's clock-taint summary, computing (and caching)
// the summaries of fn's package and of every program-local dependency
// first. Functions not declared in the program summarize as clean except
// the time-package sources and propagators, which are modeled at call
// sites. Safe for concurrent use.
func (p *Program) ClockSummary(fn *types.Func) TaintVec {
	p.factsMu.Lock()
	defer p.factsMu.Unlock()
	if fn.Pkg() == nil {
		return 0
	}
	if pkg, ok := p.pkgs[fn.Pkg().Path()]; ok {
		p.summarizeClockLocked(pkg)
	}
	return p.clockTaint[fn]
}

// summarizeClockLocked computes the summaries of pkg (dependencies
// first) to a fixpoint. Intra-package recursion converges because the
// per-function transfer is monotone over a finite lattice; cross-package
// recursion cannot occur (imports are acyclic).
func (p *Program) summarizeClockLocked(pkg *Package) {
	if p.clockDone[pkg] {
		return
	}
	p.clockDone[pkg] = true
	for _, dep := range p.LocalImports(pkg) {
		p.summarizeClockLocked(dep)
	}
	type fnDecl struct {
		fn *types.Func
		fd *ast.FuncDecl
	}
	var decls []fnDecl
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls = append(decls, fnDecl{fn, fd})
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			v := p.clockTransfer(pkg, d.fd, d.fn)
			if v != p.clockTaint[d.fn] {
				p.clockTaint[d.fn] = v
				changed = true
			}
		}
	}
}

// clockTransfer recomputes one function's summary from the current
// summary map: the join of the taint vectors of every returned
// expression (assignments to named results included).
func (p *Program) clockTransfer(pkg *Package, fd *ast.FuncDecl, fn *types.Func) TaintVec {
	sig := fn.Type().(*types.Signature)
	env := newTaintEnv(pkg, p, sig, fd)
	env.solveLocals(fd.Body)

	var out TaintVec
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's returns are not the function's
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				out |= env.exprTaint(e)
			}
		case *ast.AssignStmt:
			// Assignment to a named result contributes to the summary.
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Uses[id]
				if obj == nil || !env.namedResults[obj] {
					continue
				}
				if i < len(n.Rhs) {
					out |= env.exprTaint(n.Rhs[i])
				} else if len(n.Rhs) == 1 {
					out |= env.exprTaint(n.Rhs[0])
				}
			}
		}
		return true
	})
	return out
}

// ClockBranches returns the conditions in fd's body, function literals
// included, whose value is wall-clock-derived: an if, for, switch, case
// or range that takes its path from how long something took. Safe for
// concurrent use.
func (p *Program) ClockBranches(pkg *Package, fd *ast.FuncDecl) []ast.Expr {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok || fd.Body == nil {
		return nil
	}
	p.factsMu.Lock()
	defer p.factsMu.Unlock()
	p.summarizeClockLocked(pkg)
	env := newTaintEnv(pkg, p, fn.Type().(*types.Signature), fd)
	env.solveLocals(fd.Body)
	var out []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var conds []ast.Expr
		switch n := n.(type) {
		case *ast.IfStmt:
			conds = []ast.Expr{n.Cond}
		case *ast.ForStmt:
			conds = []ast.Expr{n.Cond}
		case *ast.SwitchStmt:
			conds = []ast.Expr{n.Tag}
		case *ast.CaseClause:
			conds = n.List
		case *ast.RangeStmt:
			conds = []ast.Expr{n.X}
		}
		for _, c := range conds {
			if c != nil && env.exprTaint(c).ConstTainted() {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// taintEnv evaluates expression taint inside one function body.
type taintEnv struct {
	pkg          *Package
	prog         *Program
	params       map[types.Object]TaintVec
	locals       map[types.Object]TaintVec
	namedResults map[types.Object]bool
}

func newTaintEnv(pkg *Package, prog *Program, sig *types.Signature, fd *ast.FuncDecl) *taintEnv {
	env := &taintEnv{
		pkg:          pkg,
		prog:         prog,
		params:       make(map[types.Object]TaintVec),
		locals:       make(map[types.Object]TaintVec),
		namedResults: make(map[types.Object]bool),
	}
	if recv := sig.Recv(); recv != nil {
		env.params[recv] = TaintRecv
	}
	for i := 0; i < sig.Params().Len(); i++ {
		env.params[sig.Params().At(i)] = paramBit(i)
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if r := sig.Results().At(i); r.Name() != "" {
			env.namedResults[r] = true
		}
	}
	return env
}

// solveLocals propagates taint through local assignments to a fixpoint,
// so straight-line laundering (t0 := time.Now(); d := since(t0)) and
// loop-carried flows are both captured.
func (env *taintEnv) solveLocals(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range assign.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := env.pkg.Info.Defs[id]
				if obj == nil {
					obj = env.pkg.Info.Uses[id]
				}
				if obj == nil || env.params[obj] != 0 {
					continue
				}
				var v TaintVec
				if i < len(assign.Rhs) {
					v = env.exprTaint(assign.Rhs[i])
				} else if len(assign.Rhs) == 1 {
					v = env.exprTaint(assign.Rhs[0]) // tuple assignment: join
				}
				if v|env.locals[obj] != env.locals[obj] {
					env.locals[obj] |= v
					changed = true
				}
			}
			return true
		})
	}
}

// exprTaint evaluates the taint vector of one expression.
func (env *taintEnv) exprTaint(e ast.Expr) TaintVec {
	switch e := e.(type) {
	case *ast.Ident:
		obj := env.pkg.Info.Uses[e]
		if obj == nil {
			obj = env.pkg.Info.Defs[e]
		}
		if obj == nil {
			return 0
		}
		if v, ok := env.params[obj]; ok {
			return v
		}
		return env.locals[obj]
	case *ast.ParenExpr:
		return env.exprTaint(e.X)
	case *ast.SelectorExpr:
		// A field of a tainted value is tainted; a package-qualified
		// selector resolves through the identifier case.
		if _, isPkg := env.pkg.Info.Uses[idOf(e.X)].(*types.PkgName); isPkg {
			return 0
		}
		return env.exprTaint(e.X)
	case *ast.StarExpr:
		return env.exprTaint(e.X)
	case *ast.UnaryExpr:
		return env.exprTaint(e.X)
	case *ast.BinaryExpr:
		return env.exprTaint(e.X) | env.exprTaint(e.Y)
	case *ast.IndexExpr:
		return env.exprTaint(e.X) | env.exprTaint(e.Index)
	case *ast.SliceExpr:
		return env.exprTaint(e.X)
	case *ast.CompositeLit:
		var v TaintVec
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			v |= env.exprTaint(elt)
		}
		return v
	case *ast.TypeAssertExpr:
		return env.exprTaint(e.X)
	case *ast.CallExpr:
		return env.callTaint(e)
	}
	return 0
}

// callTaint models one call site.
func (env *taintEnv) callTaint(call *ast.CallExpr) TaintVec {
	info := env.pkg.Info
	// Conversions keep the operand's taint.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return env.exprTaint(call.Args[0])
	}
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return 0 // builtins and unresolvable calls drop taint
	}
	switch {
	case fn.Pkg().Path() == "time":
		// The time package is the source and the universal propagator:
		// Now introduces taint, everything else (Since, Add, Sub, Unix,
		// methods on Time/Duration) carries it through from receiver and
		// arguments.
		v := env.operandTaint(call)
		if fn.Name() == "Now" {
			v |= TaintConst
		}
		if fn.Name() == "Since" {
			v |= TaintConst // reads the clock itself
		}
		return v
	case ObservabilityPkg(fn.Pkg()):
		// The nil-safe recorder packages own the clock by design; values
		// flowing through them are sanctioned (the golden guards prove
		// observation-only).
		return 0
	default:
		summary := env.summaryFor(fn)
		if summary == 0 {
			return 0
		}
		var v TaintVec
		if summary.ConstTainted() {
			v |= TaintConst
		}
		if summary&TaintRecv != 0 {
			if recv := recvExpr(call); recv != nil {
				v |= env.exprTaint(recv)
			}
		}
		for i, arg := range call.Args {
			if summary&paramBit(i) != 0 {
				v |= env.exprTaint(arg)
			}
		}
		return v
	}
}

// summaryFor resolves a callee's summary from the program map. The
// caller holds factsMu (call sites are only evaluated inside the
// fixpoint); dependencies are already summarized, same-package callees
// read the current iterate.
func (env *taintEnv) summaryFor(fn *types.Func) TaintVec {
	return env.prog.clockTaint[fn]
}

// operandTaint joins the taints of the receiver and every argument.
func (env *taintEnv) operandTaint(call *ast.CallExpr) TaintVec {
	var v TaintVec
	if recv := recvExpr(call); recv != nil {
		v |= env.exprTaint(recv)
	}
	for _, arg := range call.Args {
		v |= env.exprTaint(arg)
	}
	return v
}

// recvExpr returns the receiver expression of a method call, or nil.
func recvExpr(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// idOf unwraps an expression to an identifier, or nil.
func idOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
