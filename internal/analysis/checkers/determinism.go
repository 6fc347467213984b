package checkers

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/resilience-models/dvf/internal/analysis"
)

// determinismScope names the packages whose outputs must be bit-for-bit
// reproducible: the cache engines (sequential-vs-sharded equivalence),
// the trace codec and fan-out (replay identity) and the experiments
// package (fig4–7 golden CSVs).
var determinismScope = []string{
	"internal/cache",
	"internal/trace",
	"internal/experiments",
}

// Determinism rejects the two sources of run-to-run drift in the
// golden-output packages that a golden run on one host cannot see:
//
//   - importing math/rand (any variant): a PRNG stream that feeds a
//     result outside the golden CSVs (the injection baseline) passes
//     every test run after run;
//   - reading the wall clock (time.Now, time.Since), directly or through
//     a helper in another package, unless the value demonstrably flows
//     only into metrics instruments, which the golden guard tests
//     already prove to be observation-only: a clock that steers control
//     flow (a deadline) changes results only on a slower host;
//   - a branch whose condition is wall-clock-derived. It is reported at
//     the condition, so an allow on the read (a cost measurement) does
//     not cover a later use of the duration that picks a result.
//
// Order-dependent map iteration is not among them: the only map these
// packages range over is the simulator's per-structure counters, and
// emitting those in map order fails the replay differentials at once.
//
// Legitimate exceptions (a wall-clock cost measurement that is reported,
// not golden) carry a //dvf:allow determinism <reason> directive on the
// read.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "no wall clock (direct or laundered), clock-decided branch or math/rand in golden-output packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	if !pass.InScope(determinismScope...) {
		return nil
	}
	for _, f := range pass.Files {
		checkRandImports(pass, f)
		checkClockBranches(pass, f)
		parents := analysis.Parents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkClockRead(pass, parents, n)
				checkLaunderedClock(pass, parents, n)
			}
			return true
		})
	}
	return nil
}

func checkRandImports(pass *analysis.Pass, f *ast.File) {
	for _, imp := range f.Imports {
		switch imp.Path.Value {
		case `"math/rand"`, `"math/rand/v2"`:
			pass.Reportf(imp.Pos(), "math/rand in a golden-output package: seedable or not, iteration results must not depend on a PRNG stream")
		}
	}
}

// checkClockBranches flags every condition of f's functions that the
// clock decides, wherever the read is and whatever allows it.
func checkClockBranches(pass *analysis.Pass, f *ast.File) {
	if pass.Prog == nil {
		return
	}
	pkg := pass.Prog.Package(pass.Path)
	if pkg == nil {
		return
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			for _, c := range pass.Prog.ClockBranches(pkg, fd) {
				pass.Reportf(c.Pos(), "wall-clock-derived value decides a branch: the path taken, and what it computes, depends on host speed")
			}
		}
	}
}

// checkClockRead flags time.Now/time.Since calls whose result escapes the
// metrics-instrument sinks.
func checkClockRead(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	if !analysis.IsPkgCall(pass.TypesInfo, call, "time", "Now", "Since") {
		return
	}
	// A Since call whose argument is a Now-derived variable is judged once,
	// at the Now site; judging it again here would double-report.
	if analysis.IsPkgCall(pass.TypesInfo, call, "time", "Since") {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && !v.IsField() && v.Pkg() == pass.Pkg {
				return
			}
		}
	}
	if !metricsConsumed(pass, parents, call, 4) {
		pass.Reportf(call.Pos(), "wall-clock read (time.%s) escapes the metrics sink: non-metric uses of the clock make output depend on timing", analysis.CalleeFunc(pass.TypesInfo, call).Name())
	}
}

// checkLaunderedClock flags calls to module-local functions in *other*
// packages whose return value is clock-tainted according to the
// interprocedural taint summaries — the laundering case checkClockRead
// cannot see: a helper in a package outside the determinism scope wraps
// time.Now, and the golden-output package consumes the helper. The
// helper's own package is never checked (out of scope), so the taint
// must be caught here, at the call site. Same-package helpers need no
// treatment: their time.Now escapes at the source and is flagged there.
//
// The same metrics-sink escape hatch applies: a laundered timestamp
// that demonstrably flows only into metrics instruments is
// observation-only.
func checkLaunderedClock(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	if pass.Prog == nil {
		return
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return
	}
	if pass.Prog.Package(fn.Pkg().Path()) == nil || analysis.ObservabilityPkg(fn.Pkg()) {
		return
	}
	if !pass.Prog.ClockSummary(fn).ConstTainted() {
		return
	}
	if metricsConsumed(pass, parents, call, 4) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s.%s returns a wall-clock-derived value (laundered time.Now) that escapes the metrics sink", fn.Pkg().Name(), fn.Name())
}

// metricsConsumed reports whether every consumption path of expr ends in
// a method call on a metrics instrument (receiver type declared in a
// package named "metrics"). It follows one pattern of indirection per
// recursion step: wrapping expressions up to the enclosing statement, and
// single-variable assignments whose variable's uses are then checked the
// same way (t0 := time.Now(); d := time.Since(t0); hist.Observe(d)).
func metricsConsumed(pass *analysis.Pass, parents map[ast.Node]ast.Node, expr ast.Expr, depth int) bool {
	if depth == 0 {
		return false
	}
	var n ast.Node = expr
	for {
		parent := parents[n]
		if parent == nil {
			return false
		}
		switch p := parent.(type) {
		case *ast.ParenExpr, *ast.SelectorExpr:
			n = parent
			continue
		case *ast.CallExpr:
			if recv := analysis.ReceiverType(pass.TypesInfo, p); analysis.NamedIn(recv, "metrics") {
				return true
			}
			// A call on the tainted value itself (d.Nanoseconds(), t0.Unix())
			// keeps the taint; a call taking it as an argument does too
			// (time.Since(t0)). Either way the call's result is what must
			// reach metrics.
			n = parent
			continue
		case *ast.AssignStmt:
			// Only the single-assign form is followed; anything fancier is
			// treated as an escape.
			if len(p.Lhs) != 1 || len(p.Rhs) != 1 || p.Rhs[0] != n {
				return false
			}
			id, ok := p.Lhs[0].(*ast.Ident)
			if !ok {
				return false
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return false
			}
			return varOnlyFeedsMetrics(pass, obj, depth-1)
		default:
			return false
		}
	}
}

// varOnlyFeedsMetrics checks that every use of the variable is itself
// metrics-consumed.
func varOnlyFeedsMetrics(pass *analysis.Pass, obj types.Object, depth int) bool {
	for _, f := range pass.Files {
		if !fileContains(f, obj.Pos()) {
			continue
		}
		parents := analysis.Parents(f)
		ok := true
		ast.Inspect(f, func(n ast.Node) bool {
			id, isIdent := n.(*ast.Ident)
			if !isIdent || !ok || pass.TypesInfo.Uses[id] != obj {
				return ok
			}
			if !metricsConsumed(pass, parents, id, depth) {
				ok = false
			}
			return ok
		})
		return ok
	}
	return false
}

func fileContains(f *ast.File, pos token.Pos) bool {
	return f.FileStart <= pos && pos < f.FileEnd
}
