// Command dvf-lint runs the repository's own static-analysis suite
// (internal/analysis) over the named packages and fails the build on any
// finding. The checkers enforce the invariants that no test, golden,
// race run or go vet pass catches: the nil-sink observability contract,
// determinism of the golden-output packages (including clock taint
// laundered through helpers in other packages), allocation-free
// //dvf:hotpath call paths, enum-switch exhaustiveness, error-result
// hygiene and unsafe memory use.
//
// Usage:
//
//	dvf-lint ./...                      # whole module, all checkers
//	dvf-lint -only nilsink,errdrop ./internal/... ./cmd/...
//	dvf-lint -fix ./...                 # apply suggested fixes in place
//	dvf-lint -sarif lint.sarif ./...    # also write SARIF 2.1.0
//	dvf-lint -list                      # show the registered checkers
//
// Findings print one per line as "file:line: [checker] message".
//
// Exit status separates outcome classes so CI can tell them apart:
// 0 when the analysis ran everywhere and found nothing, 1 when the
// analysis ran and found something, 2 on usage errors or when any
// package failed to load or type-check — load errors name the package
// on stderr and analysis continues over the packages that did load, but
// a partial run never masquerades as a clean one.
//
// Suppressions are in-source and audited: //dvf:allow <checker> <reason>
// on (or directly above) the flagged line. A directive is judged only
// when its checker runs, so -only never reports (or -fix deletes) the
// directives of the checkers it skips; a directive naming no registered
// checker is reported on every run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/resilience-models/dvf/internal/analysis"
	"github.com/resilience-models/dvf/internal/analysis/checkers"
	"github.com/resilience-models/dvf/internal/obs"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvf-lint: %v\n", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], cwd, os.Stdout, os.Stderr))
}

// run is the whole CLI, parameterized over its inputs and output streams
// so main_test.go can drive it against fixture modules without spawning
// processes.
func run(args []string, cwd string, stdout, stderr io.Writer) int {
	errorf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "dvf-lint: "+format+"\n", a...)
	}

	fs := flag.NewFlagSet("dvf-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of checkers to run (default: all)")
	list := fs.Bool("list", false, "list registered checkers and exit")
	fix := fs.Bool("fix", false, "apply the first suggested fix of each finding and rewrite the files")
	sarifOut := fs.String("sarif", "", "write a SARIF 2.1.0 report to this file ('-' for stdout)")
	jobs := fs.Int("jobs", 0, "number of packages analyzed concurrently (0 = GOMAXPROCS)")
	timings := fs.Bool("timings", false, "print a per-checker wall-time and findings table on stderr (and record it in the SARIF run properties)")
	o := obs.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	defer o.Start()()

	if *list {
		for _, a := range checkers.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := checkers.Select(*only)
	if err != nil {
		errorf("%v", err)
		return 2
	}
	analyzers = append(analyzers, checkers.Directive)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		errorf("%v", err)
		return 2
	}
	paths, err := loader.Expand(cwd, patterns)
	if err != nil {
		errorf("%v", err)
		return 2
	}
	if len(paths) == 0 {
		errorf("no packages matched")
		return 2
	}

	// Load everything first; a package that fails to load is reported to
	// stderr with its import path and the rest is still analyzed, so one
	// broken package does not hide the findings of fifty good ones. The
	// exit status still reports the failure.
	var pkgs []*analysis.Package
	loadFailed := false
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			errorf("loading %s: %v", p, err)
			loadFailed = true
			continue
		}
		pkgs = append(pkgs, pkg)
	}

	var tm *analysis.Timings
	if *timings {
		tm = analysis.NewTimings()
	}
	var diags []analysis.Diagnostic
	if len(pkgs) > 0 {
		diags, err = analysis.Run(loader.Program(), pkgs, analyzers, false, *jobs, tm)
		if err != nil {
			errorf("%v", err)
			return 2
		}
	}
	if tm != nil {
		fmt.Fprint(stderr, tm.Table())
	}

	if *sarifOut != "" {
		if err := writeSarif(*sarifOut, stdout, diags, analyzers, cwd, tm); err != nil {
			errorf("%v", err)
			return 2
		}
	}

	if *fix {
		diags = applyFixes(loader, diags, stderr)
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, relDiag(cwd, d))
	}
	switch {
	case loadFailed:
		return 2
	case len(diags) > 0:
		errorf("%d finding(s) in %d package(s)", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// applyFixes rewrites the files of every finding that carries a
// suggested fix and returns the findings that remain (those without
// one). Fixed files are listed on stderr.
func applyFixes(loader *analysis.Loader, diags []analysis.Diagnostic, stderr io.Writer) []analysis.Diagnostic {
	var fixable, remaining []analysis.Diagnostic
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			fixable = append(fixable, d)
		} else {
			remaining = append(remaining, d)
		}
	}
	if len(fixable) == 0 {
		return remaining
	}
	fixed, err := analysis.ApplyFixes(loader.Fset, fixable)
	if err != nil {
		fmt.Fprintf(stderr, "dvf-lint: applying fixes: %v\n", err)
		return diags // leave everything reported; nothing was written
	}
	files, err := analysis.WriteFixes(fixed)
	if err != nil {
		fmt.Fprintf(stderr, "dvf-lint: writing fixes: %v\n", err)
		return diags
	}
	for _, f := range files {
		fmt.Fprintf(stderr, "dvf-lint: fixed %s\n", f)
	}
	return remaining
}

// writeSarif renders the report to path ("-" = stdout). A non-nil tm
// lands its per-checker cost table in the run's property bag.
func writeSarif(path string, stdout io.Writer, diags []analysis.Diagnostic, analyzers []*analysis.Analyzer, cwd string, tm *analysis.Timings) error {
	report := analysis.SarifReport(diags, analyzers, cwd)
	if tm != nil && len(report.Runs) > 0 {
		report.Runs[0].Properties = tm.SarifProperties()
	}
	if path == "-" {
		return report.Write(stdout)
	}
	if !filepath.IsAbs(path) {
		path = filepath.Join(cwd, path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Write(f); err != nil {
		_ = f.Close() // the write error is the one worth returning
		return err
	}
	return f.Close()
}

// relDiag renders one finding with a cwd-relative path for clickable,
// stable output.
func relDiag(cwd string, d analysis.Diagnostic) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(cwd, file); err == nil && !filepath.IsAbs(rel) {
		file = rel
	}
	return fmt.Sprintf("%s:%d: [%s] %s", file, d.Pos.Line, d.Checker, d.Message)
}
