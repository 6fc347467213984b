// Package analysistest runs a checker over packages under a testdata/src
// tree and verifies its diagnostics against // want "regexp" comments in
// the sources — the same expectation style as x/tools' analysistest,
// reimplemented on the stdlib so the module stays dependency-free.
//
// A want comment asserts one diagnostic on its own line; several patterns
// assert several diagnostics:
//
//	for k := range m { // want `map range` `second finding`
//
// Patterns are regular expressions matched against the diagnostic
// message. Lines without a want comment must produce no diagnostic; both
// missed and unexpected findings fail the test.
//
// Packages may span any number of files; expectations are collected from
// every file the build actually selects, and diagnostics are matched per
// file. Files excluded by build constraints contribute neither
// diagnostics nor expectations, so a testdata package can pair e.g. a
// _linux.go file with its darwin sibling and each platform checks only
// its own half — or pin the platform for full determinism with
// RunWithConfig and an explicit GOOS/GOARCH.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

// Config pins the build-constraint environment testdata packages are
// selected under. Zero values keep the host platform.
type Config struct {
	GOOS      string
	GOARCH    string
	BuildTags []string
}

// expectation is one want pattern awaiting a matching diagnostic.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run loads each named package from testdata/src (resolved relative to
// the calling test's working directory, i.e. the checker package) and
// checks the analyzer's findings against the want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	RunWithConfig(t, Config{}, a, pkgs...)
}

// RunWithConfig is Run under an explicit build-constraint environment,
// for testdata packages that rely on build-tag-filtered files.
func RunWithConfig(t *testing.T, cfg Config, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	loader.SetBuildContext(cfg.GOOS, cfg.GOARCH, cfg.BuildTags)
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatalf("testdata root: %v", err)
	}
	loaded := make([]*analysis.Package, 0, len(pkgs))
	for _, pkgPath := range pkgs {
		pkg, err := loader.Load(pkgPath)
		if err != nil {
			t.Fatalf("loading %s: %v", pkgPath, err)
		}
		loaded = append(loaded, pkg)
	}
	prog := loader.Program()
	for i, pkg := range loaded {
		diags, err := analysis.Run(prog, []*analysis.Package{pkg}, []*analysis.Analyzer{a}, true, 1, nil)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgs[i], err)
		}
		expects, err := parseWants(pkg)
		if err != nil {
			t.Fatalf("%s: %v", pkgs[i], err)
		}
		checkExpectations(t, pkgs[i], diags, expects)
	}
}

// parseWants extracts the expectations from every file of the package —
// only files the build selected are present, so expectations in
// build-tag-excluded files are naturally inert.
func parseWants(pkg *analysis.Package) ([]*expectation, error) {
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRe.FindAllStringSubmatch(rest, -1)
				if len(matches) == 0 {
					return nil, fmt.Errorf("%s:%d: malformed want comment (no quoted pattern)", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					pat := m[1]
					if m[2] != "" || pat == "" {
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return out, nil
}

// checkExpectations matches diagnostics to wants one-to-one.
func checkExpectations(t *testing.T, pkgPath string, diags []analysis.Diagnostic, expects []*expectation) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, e := range expects {
			if e.matched || e.file != d.Pos.Filename || e.line != d.Pos.Line {
				continue
			}
			if e.pattern.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic:\n  %s", pkgPath, d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s: %s:%d: no diagnostic matched want %q", pkgPath, e.file, e.line, e.pattern)
		}
	}
}
