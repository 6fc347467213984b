package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
	"github.com/resilience-models/dvf/internal/analysis/checkers"
)

// runLint drives the CLI in-process against a fixture directory.
func runLint(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, dir, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// copyFixture clones a testdata module into a temp dir so -fix runs
// never mutate the checked-in fixture.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func fixtureDir(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// TestExitFindings: findings print to stdout as file:line: [checker]
// message and the process exits 1.
func TestExitFindings(t *testing.T) {
	code, stdout, stderr := runLint(t, fixtureDir(t), "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "[exhaustive]") || !strings.Contains(stdout, "misses Green, Blue") {
		t.Errorf("stdout misses the exhaustive finding:\n%s", stdout)
	}
	if !strings.Contains(stdout, "[directive]") {
		t.Errorf("stdout misses the stale-directive finding:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr misses the summary line:\n%s", stderr)
	}
}

// TestExitClean: a module with nothing to report exits 0.
func TestExitClean(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "cleanfix"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runLint(t, dir, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

// TestExitLoadError: a package that fails to type-check is named on
// stderr with its import path and the run exits 2.
func TestExitLoadError(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "brokenfix"))
	if err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runLint(t, dir, "./...")
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "loading") || !strings.Contains(stderr, "internal/broken") {
		t.Errorf("stderr must name the failing package:\n%s", stderr)
	}
}

// TestUsageErrors: unknown flags and unknown checkers exit 2.
func TestUsageErrors(t *testing.T) {
	if code, _, _ := runLint(t, fixtureDir(t), "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, stderr := runLint(t, fixtureDir(t), "-only", "nope", "./..."); code != 2 || !strings.Contains(stderr, "unknown checker") {
		t.Errorf("unknown checker: exit %d, stderr %q", code, stderr)
	}
}

// TestList: -list prints the registry and exits 0.
func TestList(t *testing.T) {
	code, stdout, _ := runLint(t, fixtureDir(t), "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"determinism", "exhaustive", "hotalloc", "nilsink"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list misses %s:\n%s", name, stdout)
		}
	}
}

// TestTimings: -timings prints the per-checker cost table on stderr and
// lands the same rows in the SARIF run's property bag. hotalloc asks for
// the call graph, whose one-time build gets its own row.
func TestTimings(t *testing.T) {
	code, stdout, stderr := runLint(t, fixtureDir(t), "-timings", "-sarif", "-", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"checker", "wall", "findings", "exhaustive", "hotalloc", analysis.CallGraphRow, "total"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("timings table misses %q:\n%s", want, stderr)
		}
	}
	var log struct {
		Runs []struct {
			Properties map[string]any `json:"properties"`
		} `json:"runs"`
	}
	// Findings follow the SARIF document on stdout; decode just the JSON.
	if err := json.NewDecoder(strings.NewReader(stdout)).Decode(&log); err != nil {
		t.Fatalf("SARIF on stdout does not parse: %v", err)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("expected 1 SARIF run, got %d", len(log.Runs))
	}
	if _, ok := log.Runs[0].Properties["dvfLintTimings/v1"]; !ok {
		t.Errorf("SARIF run properties miss dvfLintTimings/v1: %v", log.Runs[0].Properties)
	}
	if props, _ := json.Marshal(log.Runs[0].Properties); !strings.Contains(string(props), analysis.CallGraphRow) {
		t.Errorf("SARIF run properties miss the %s row: %s", analysis.CallGraphRow, props)
	}
}

// TestLiveRepoClean is the self-hosting assertion: the repository's own
// tree lints clean under every registered checker; //dvf:allow is the
// only suppression there is. A new checker that fires on the live tree —
// or a code change that trips an existing one — fails here, not in CI
// review.
func TestLiveRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint run")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repo root not found at %s", root)
	}
	code, stdout, stderr := runLint(t, root, "./...")
	if code != 0 {
		t.Errorf("live repo lint exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestFixRoundTrip is the -fix contract end to end: applying fixes
// leaves the module finding-free, buildable (the rewrite parses) and
// gofmt-idempotent.
func TestFixRoundTrip(t *testing.T) {
	dir := copyFixture(t, fixtureDir(t))
	code, _, stderr := runLint(t, dir, "-fix", "./...")
	if code != 0 {
		t.Fatalf("-fix exit = %d, want 0 (every fixture finding is fixable)\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "fixed ") {
		t.Errorf("stderr must list rewritten files:\n%s", stderr)
	}

	fixed := filepath.Join(dir, "internal", "colors", "colors.go")
	src, err := os.ReadFile(fixed)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"case Green:", "case Blue:"} {
		if !strings.Contains(string(src), want) {
			t.Errorf("fix did not insert %q:\n%s", want, src)
		}
	}
	if strings.Contains(string(src), "dvf:allow exhaustive") {
		t.Errorf("stale directive survived -fix:\n%s", src)
	}
	formatted, err := format.Source(src)
	if err != nil {
		t.Fatalf("fixed file does not parse: %v", err)
	}
	if !bytes.Equal(formatted, src) {
		t.Errorf("fixed file is not gofmt-idempotent")
	}

	// The ratchet: a second run over the fixed tree is clean.
	if code, stdout, stderr := runLint(t, dir, "./..."); code != 0 {
		t.Errorf("re-run after -fix: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

// TestSarifOutput: -sarif writes a structurally valid report even when
// the run has findings (exit 1), which is what lets CI upload it from a
// failing job.
func TestSarifOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "lint.sarif")
	code, _, stderr := runLint(t, fixtureDir(t), "-sarif", out, "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("SARIF file not written: %v", err)
	}
	for _, want := range []string{`"version": "2.1.0"`, `"ruleId": "exhaustive"`, "%SRCROOT%", "dvfLintFingerprint/v1"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("SARIF output misses %q", want)
		}
	}
}

// TestSarifStdout: '-' streams the report to stdout instead of a file.
func TestSarifStdout(t *testing.T) {
	code, stdout, _ := runLint(t, fixtureDir(t), "-sarif", "-", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stdout, `"$schema"`) || !strings.Contains(stdout, "2.1.0") {
		t.Errorf("stdout misses the SARIF document:\n%s", stdout)
	}
}

// TestOnlyEmptySelection: a -only list that names nothing (just commas
// or blanks) must exit 2, not silently run zero checkers and pass.
func TestOnlyEmptySelection(t *testing.T) {
	for _, sel := range []string{",", " , ", ",,"} {
		code, _, stderr := runLint(t, fixtureDir(t), "-only", sel, "./...")
		if code != 2 || !strings.Contains(stderr, "selects no checkers") {
			t.Errorf("-only %q: exit %d, stderr %q; want exit 2 naming the empty selection", sel, code, stderr)
		}
	}
}

// TestUnknownDirective: a //dvf:allow naming no registered checker (here
// a retired one) is reported on every run, -only included, since no
// checker that runs would ever judge it stale.
func TestUnknownDirective(t *testing.T) {
	for _, args := range [][]string{{"./..."}, {"-only", "errdrop", "./..."}} {
		code, stdout, _ := runLint(t, fixtureDir(t), args...)
		if code != 1 || !strings.Contains(stdout, "[directive] dvf:allow patterndrift names no registered checker") {
			t.Errorf("%v: exit %d, want 1 naming the unknown checker\nstdout:\n%s", args, code, stdout)
		}
	}
}

// TestOnlyKeepsOtherDirectives: -only judges just the directives of the
// checkers it runs. On a module whose one directive is a used exhaustive
// suppression, every single-checker run exits 0 and -fix rewrites
// nothing.
func TestOnlyKeepsOtherDirectives(t *testing.T) {
	src, err := filepath.Abs(filepath.Join("testdata", "cleanfix"))
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join("internal", "quiet", "quiet.go")
	want, err := os.ReadFile(filepath.Join(src, file))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range checkers.All() {
		dir := copyFixture(t, src)
		code, stdout, stderr := runLint(t, dir, "-only", a.Name, "-fix", "./...")
		if code != 0 {
			t.Errorf("-only %s -fix: exit %d, want 0\nstdout:\n%s\nstderr:\n%s", a.Name, code, stdout, stderr)
		}
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-only %s -fix rewrote %s:\n%s", a.Name, file, got)
		}
	}
}

// TestLiveRepoCleanPerChecker: the live tree also lints clean under each
// checker alone, as -only runs it (that checker plus the directive
// rule), so no selection trips over the //dvf:allow directives of the
// checkers it skips. The tree is loaded once for all the runs.
func TestLiveRepoCleanPerChecker(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint runs")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repo root not found at %s", root)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, a := range checkers.All() {
		diags, err := analysis.Run(loader.Program(), pkgs, []*analysis.Analyzer{a, checkers.Directive}, false, 0, nil)
		if err != nil {
			t.Fatalf("-only %s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("-only %s: %s", a.Name, d)
		}
	}
}
