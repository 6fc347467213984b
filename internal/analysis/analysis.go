// Package analysis is a small, stdlib-only static-analysis framework —
// go/parser + go/ast + go/types and nothing from x/tools — purpose-built
// to enforce the invariants of this repository that no test, golden,
// race run or go vet pass catches: determinism of the golden-output
// packages beyond what one golden run exercises, the zero-overhead
// nil-sink pattern, allocation-free hot paths on every path rather than
// the inputs a guard replays, and the like. A rule whose bug shape one of
// those checks already fails on does not belong here.
//
// The model mirrors golang.org/x/tools/go/analysis in miniature: an
// Analyzer bundles a name, a doc string and a Run function; Run receives
// a Pass holding one type-checked package and reports findings through
// Pass.Reportf (optionally carrying SuggestedFixes, applied by
// dvf-lint -fix). Beyond the per-package view, a Pass exposes the whole
// Program: the call graph, //dvf:hotpath annotations and the
// interprocedural clock-taint summaries, so checkers can follow flows
// across function and package boundaries. The driver (cmd/dvf-lint)
// loads packages with Loader, analyzes them with Run — concurrently, in
// dependency order — and renders findings as
// "file:line: [checker] message" (or as a SARIF 2.1.0 log).
//
// Suppression is explicit and audited: a comment
//
//	//dvf:allow <checker> <reason>
//
// on the flagged line (or the line above it) silences that checker for
// that line. The reason is mandatory — a bare directive is itself
// reported — so every exception in the tree documents why it is safe.
// A directive is judged only in runs of its checker: then an unused one
// is reported as stale.
// The second annotation, //dvf:hotpath, is a claim rather than a
// suppression: it marks a function as a replay hot path, and the
// hotalloc checker then proves every call path from it allocation-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the checker in diagnostics and in -only selections.
	Name string
	// Doc is a one-paragraph description of the invariant it guards.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path (testdata packages get their bare
	// directory name).
	Path string
	// Prog is the whole-program view: every package loaded for this run,
	// plus the interprocedural facts (call graph, hotpath annotations,
	// clock-taint summaries) computed over them.
	Prog *Program
	// Force disables the checker's own import-path scoping; the
	// expect-comment test harness sets it so testdata packages are
	// analyzed regardless of where they live.
	Force bool

	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Checker string
	Message string
	// Fixes holds zero or more suggested remediations; dvf-lint -fix
	// applies the first fix of each surviving diagnostic.
	Fixes []SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Checker, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// Report records a finding at pos with optional suggested fixes.
func (p *Pass) Report(pos token.Pos, message string, fixes ...SuggestedFix) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Checker: p.Analyzer.Name,
		Message: message,
		Fixes:   fixes,
	})
}

// InScope reports whether the package's import path matches any of the
// given path fragments; a forced pass (test harness) is always in scope.
// Checkers use it to confine themselves to the packages whose invariant
// they guard. Fragments match whole path segments: "internal/trace" is in
// scope for ".../internal/trace" and ".../internal/trace/sub" but not for
// ".../internal/tracez"; a fragment ending in "/" matches any segment
// with that prefix ("internal/" covers the whole internal tree).
func (p *Pass) InScope(fragments ...string) bool {
	if p.Force {
		return true
	}
	for _, f := range fragments {
		if containsPathSegments(p.Path, f) {
			return true
		}
	}
	return false
}

// containsPathSegments is strings.Contains aligned to '/' boundaries on
// both sides (the right side is open when fragment ends in '/').
func containsPathSegments(path, fragment string) bool {
	open := strings.HasSuffix(fragment, "/")
	for off := 0; off+len(fragment) <= len(path); {
		j := strings.Index(path[off:], fragment)
		if j < 0 {
			return false
		}
		start := off + j
		end := start + len(fragment)
		if (start == 0 || path[start-1] == '/') &&
			(open || end == len(path) || path[end] == '/') {
			return true
		}
		off = start + 1
	}
	return false
}

// allowDirective is one parsed //dvf:allow comment.
type allowDirective struct {
	file    string
	line    int
	checker string
	reason  string
	pos     token.Pos // comment start, for the delete-me suggested fix
	end     token.Pos // comment end
	used    bool
}

const allowPrefix = "//dvf:allow"

// parseDirectives extracts //dvf:allow comments from every file of the
// package. A directive with a missing checker name or empty reason is
// converted into a framework diagnostic instead.
func parseDirectives(fset *token.FileSet, files []*ast.File) ([]*allowDirective, []Diagnostic) {
	var dirs []*allowDirective
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Checker: "directive",
						Message: "dvf:allow needs a checker name and a reason: //dvf:allow <checker> <why this is safe>",
					})
					continue
				}
				dirs = append(dirs, &allowDirective{
					file:    pos.Filename,
					line:    pos.Line,
					checker: fields[0],
					reason:  strings.Join(fields[1:], " "),
					pos:     c.Pos(),
					end:     c.End(),
				})
			}
		}
	}
	return dirs, bad
}

// runPackage executes the analyzers over one package of the program and
// returns its surviving diagnostics (unsorted). A non-nil tm is charged
// each analyzer's wall time on this package and the surviving findings.
// Only the directives of checkers that ran are judged: a //dvf:allow for
// a checker outside this run is neither stale nor used.
func runPackage(prog *Program, pkg *Package, analyzers []*Analyzer, force bool, tm *Timings) ([]Diagnostic, error) {
	dirs, bad := parseDirectives(pkg.Fset, pkg.Files)
	all := bad
	var diags []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Path:      pkg.Path,
			Prog:      prog,
			Force:     force,
			diags:     &diags,
		}
		start := time.Now()
		err := a.Run(pass)
		if tm != nil {
			tm.addWall(a.Name, time.Since(start))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	for _, d := range diags {
		if !suppressed(dirs, d) {
			all = append(all, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used && ran[dir.checker] {
			all = append(all, Diagnostic{
				Pos:     token.Position{Filename: dir.file, Line: dir.line},
				Checker: "directive",
				Message: fmt.Sprintf("dvf:allow %s suppresses nothing here; delete it", dir.checker),
				Fixes: []SuggestedFix{{
					Message: "delete the stale directive",
					Edits:   []TextEdit{{Pos: dir.pos, End: dir.end}},
				}},
			})
		}
	}
	if tm != nil {
		tm.addFindings(all)
	}
	return all, nil
}

// SortDiagnostics orders findings by file, line, then checker name —
// the driver's stable output order regardless of scheduling.
func SortDiagnostics(all []Diagnostic) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
}

// suppressed reports whether a directive on the diagnostic's line (or the
// line directly above, for comment-above style) covers it, marking the
// directive used.
func suppressed(dirs []*allowDirective, d Diagnostic) bool {
	for _, dir := range dirs {
		if dir.checker != d.Checker || dir.file != d.Pos.Filename {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			dir.used = true
			return true
		}
	}
	return false
}
