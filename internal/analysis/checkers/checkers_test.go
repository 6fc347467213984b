package checkers

import (
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
	"github.com/resilience-models/dvf/internal/analysis/analysistest"
)

func TestNilSink(t *testing.T)     { analysistest.Run(t, NilSink, "metrics", "tracez") }
func TestDeterminism(t *testing.T) { analysistest.Run(t, Determinism, "determinism") }
func TestErrDrop(t *testing.T)     { analysistest.Run(t, ErrDrop, "errdrop") }
func TestHotAlloc(t *testing.T)    { analysistest.Run(t, HotAlloc, "hotalloc") }
func TestExhaustive(t *testing.T)  { analysistest.Run(t, Exhaustive, "exhaustive") }
func TestUnsafemem(t *testing.T)   { analysistest.Run(t, Unsafemem, "unsafemem") }

func TestRegistryAllSorted(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("expected 6 registered checkers, got %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("registry out of order: %s before %s", all[i-1].Name, all[i].Name)
		}
	}
	for _, a := range all {
		if a.Doc == "" {
			t.Errorf("checker %s has no doc string", a.Name)
		}
	}
}

func TestRegistrySelect(t *testing.T) {
	sel, err := Select("nilsink,determinism")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || sel[0].Name != "nilsink" || sel[1].Name != "determinism" {
		got := make([]string, len(sel))
		for i, a := range sel {
			got[i] = a.Name
		}
		t.Errorf("Select kept neither order nor content: %v", got)
	}
	if sel, err := Select("  "); err != nil || len(sel) != 6 {
		t.Errorf("blank selection should return all checkers, got %d, %v", len(sel), err)
	}
	if _, err := Select("nope"); err == nil || !strings.Contains(err.Error(), "unknown checker") {
		t.Errorf("unknown checker should error with the known set, got %v", err)
	}
}

// TestExhaustiveFixRoundTrip applies the exhaustive checker's suggested
// fix to the fixture and proves the -fix contract: the rewrite contains
// the inserted case stubs, parses, and is gofmt-idempotent.
func TestExhaustiveFixRoundTrip(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("exhaustive")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(loader.Program(), []*analysis.Package{pkg}, []*analysis.Analyzer{Exhaustive}, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fixable []analysis.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			fixable = append(fixable, d)
		}
	}
	if len(fixable) == 0 {
		t.Fatal("exhaustive fixture produced no suggested fixes")
	}
	fixed, err := analysis.ApplyFixes(loader.Fset, fixable)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) == 0 {
		t.Fatal("ApplyFixes produced no rewrites")
	}
	for file, out := range fixed {
		for _, stub := range []string{"case KindB:", "case KindC:"} {
			if !strings.Contains(string(out), stub) {
				t.Errorf("%s: fix output misses %q", file, stub)
			}
		}
		if _, err := parser.ParseFile(token.NewFileSet(), file, out, 0); err != nil {
			t.Errorf("%s: fixed source does not parse: %v", file, err)
		}
		formatted, err := format.Source(out)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if string(formatted) != string(out) {
			t.Errorf("%s: fix output is not gofmt-idempotent", file)
		}
	}
}
