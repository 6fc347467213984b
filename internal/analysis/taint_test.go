package analysis_test

import (
	"go/types"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

// loadTaintFixture loads the taint testdata packages and returns them
// with the shared program.
func loadTaintFixture(t *testing.T) (*analysis.Program, map[string]*analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatal(err)
	}
	pkgs := make(map[string]*analysis.Package)
	for _, path := range []string{"taintdep", "taintmain"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs[path] = pkg
	}
	return loader.Program(), pkgs
}

// lookupFunc resolves "Name" or "Recv.Method" in the package scope.
func lookupFunc(t *testing.T, pkg *analysis.Package, name string) *types.Func {
	t.Helper()
	if recv, method, isMethod := strings.Cut(name, "."); isMethod {
		obj := pkg.Types.Scope().Lookup(recv)
		if obj == nil {
			t.Fatalf("%s: no object %q", pkg.Path, recv)
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			t.Fatalf("%s.%s is not a named type", pkg.Path, recv)
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == method {
				return m
			}
		}
		t.Fatalf("%s.%s has no method %q", pkg.Path, recv, method)
	}
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("%s: no function %q", pkg.Path, name)
	}
	return fn
}

// TestClockSummaries drives the taint lattice over the synthetic fixture:
// cross-package summary composition, self and mutual recursion, receiver
// and parameter bits, named results and local laundering chains.
func TestClockSummaries(t *testing.T) {
	prog, pkgs := loadTaintFixture(t)

	// param0 is the lattice bit for the first parameter (bits 0..61; the
	// exported constants cover const and recv).
	const param0 = analysis.TaintVec(1)

	tests := []struct {
		pkg  string
		fn   string
		want analysis.TaintVec
	}{
		// The seed package's own summaries, queried across the boundary.
		{"taintdep", "Now64", analysis.TaintConst},
		{"taintdep", "Echo", param0},
		{"taintdep", "Pure", 0},
		// Cross-package composition.
		{"taintmain", "FromDep", analysis.TaintConst},
		{"taintmain", "LaunderParam", analysis.TaintConst},
		{"taintmain", "EchoLocal", param0},
		{"taintmain", "FromPure", 0},
		// Recursion converges on the finite lattice.
		{"taintmain", "Rec", analysis.TaintConst},
		{"taintmain", "MutualA", analysis.TaintConst},
		{"taintmain", "MutualB", analysis.TaintConst},
		// Receiver and parameter propagation through the time package.
		{"taintmain", "Clock.Value", analysis.TaintRecv},
		{"taintmain", "Stamp", param0},
		// Named results and local variable chains.
		{"taintmain", "NamedResult", analysis.TaintConst},
		{"taintmain", "ViaLocal", analysis.TaintConst},
		{"taintmain", "Clean", 0},
	}
	for _, tc := range tests {
		t.Run(tc.pkg+"."+tc.fn, func(t *testing.T) {
			fn := lookupFunc(t, pkgs[tc.pkg], tc.fn)
			if got := prog.ClockSummary(fn); got != tc.want {
				t.Errorf("ClockSummary(%s.%s) = %#x, want %#x", tc.pkg, tc.fn, uint64(got), uint64(tc.want))
			}
		})
	}
}

// TestClockSummaryPredicates covers the lattice accessors.
func TestClockSummaryPredicates(t *testing.T) {
	if analysis.TaintVec(0) != 0 {
		t.Error("bottom must not be tainted")
	}
	if !analysis.TaintConst.ConstTainted() {
		t.Error("const bit must report ConstTainted")
	}
	if analysis.TaintRecv.ConstTainted() {
		t.Error("recv bit alone must not report ConstTainted")
	}
	if analysis.TaintRecv|analysis.TaintVec(1) == 0 {
		t.Error("any set bit must leave the vector above bottom")
	}
}

// TestClockSummaryOutsideProgram: functions with no package (builtins)
// and packages outside the program summarize clean.
func TestClockSummaryOutsideProgram(t *testing.T) {
	prog, pkgs := loadTaintFixture(t)
	// A stdlib function reached through the fixture's imports: time.Now is
	// modeled at call sites, not via a summary, so the map query is clean.
	timePkg := pkgs["taintdep"].Types.Imports()[0]
	if timePkg.Path() != "time" {
		t.Fatalf("fixture import = %s, want time", timePkg.Path())
	}
	now, _ := timePkg.Scope().Lookup("Now").(*types.Func)
	if now == nil {
		t.Fatal("time.Now not found")
	}
	if got := prog.ClockSummary(now); got != 0 {
		t.Errorf("ClockSummary(time.Now) = %#x, want 0 (modeled at call sites)", uint64(got))
	}
}
