package analysis_test

import (
	"go/token"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

// flagFunc is a trivial analyzer for framework tests: it flags every
// function whose name starts with "Bad".
var flagFunc = &analysis.Analyzer{
	Name: "flagfunc",
	Doc:  "flags functions named Bad*",
	Run: func(pass *analysis.Pass) error {
		for _, d := range pass.FuncDecls() {
			if strings.HasPrefix(d.Decl.Name.Name, "Bad") {
				pass.Reportf(d.Decl.Name.Pos(), "function %s is flagged", d.Decl.Name.Name)
			}
		}
		return nil
	},
}

func loadDirectivesFixture(t *testing.T) []analysis.Diagnostic {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("directives")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(loader.Program(), []*analysis.Package{pkg}, []*analysis.Analyzer{flagFunc}, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDirectives drives the suppression machinery end to end: a finding
// without a directive survives, a directive on the line above suppresses,
// an unused directive and a reason-less directive are themselves findings.
func TestDirectives(t *testing.T) {
	diags := loadDirectivesFixture(t)
	var got []string
	for _, d := range diags {
		got = append(got, "["+d.Checker+"] "+d.Message)
	}
	want := []string{
		"[flagfunc] function BadOne is flagged",
		"[directive] dvf:allow flagfunc suppresses nothing here; delete it",
		"[directive] dvf:allow needs a checker name and a reason: //dvf:allow <checker> <why this is safe>",
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics:\n  got  %q\n  want %q", got, want)
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic %q in %q", w, got)
		}
	}
	for _, g := range got {
		if strings.Contains(g, "BadTwo") {
			t.Errorf("suppressed finding leaked through: %q", g)
		}
	}
}

// TestDiagnosticsSorted: Run returns findings in file/line/checker order
// so the driver's output is stable.
func TestDiagnosticsSorted(t *testing.T) {
	diags := loadDirectivesFixture(t)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := analysis.Diagnostic{
		Pos:     token.Position{Filename: "pkg/file.go", Line: 7},
		Checker: "nilsink",
		Message: "boom",
	}
	if got, want := d.String(), "pkg/file.go:7: [nilsink] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestInScope(t *testing.T) {
	p := &analysis.Pass{Path: "github.com/resilience-models/dvf/internal/cache"}
	if !p.InScope("internal/cache") {
		t.Error("path containing the fragment should be in scope")
	}
	if p.InScope("internal/trace", "cmd/") {
		t.Error("unrelated fragments should be out of scope")
	}
	tracez := &analysis.Pass{Path: "github.com/resilience-models/dvf/internal/tracez"}
	if tracez.InScope("internal/trace") {
		t.Error("fragment must match whole path segments, not a name prefix")
	}
	if !tracez.InScope("internal/") {
		t.Error("trailing-slash fragment should prefix-match a segment")
	}
	sub := &analysis.Pass{Path: "github.com/resilience-models/dvf/internal/trace/sub"}
	if !sub.InScope("internal/trace") {
		t.Error("fragment should match a parent of a nested package")
	}
	forced := &analysis.Pass{Path: "anything", Force: true}
	if !forced.InScope("internal/cache") {
		t.Error("forced pass must always be in scope")
	}
}
