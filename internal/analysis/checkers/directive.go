package checkers

import (
	"strings"

	"github.com/resilience-models/dvf/internal/analysis"
)

// Directive reports every //dvf:allow that names no registered checker,
// with a fix that deletes it. The framework judges a directive stale only
// when its checker ran, so without this rule a directive for a deleted or
// misspelled checker would suppress nothing and never be reported.
// dvf-lint runs it on every invocation, -only included; it is not in All,
// so it cannot be selected or deselected.
var Directive = &analysis.Analyzer{
	Name: "directive",
	Doc:  "//dvf:allow directives are well-formed, name a registered checker and suppress something",
	Run:  runDirective,
}

func runDirective(pass *analysis.Pass) error {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//dvf:allow")
				fields := strings.Fields(rest)
				if !ok || len(fields) == 0 || known[fields[0]] {
					continue
				}
				pass.Report(c.Pos(), "dvf:allow "+fields[0]+" names no registered checker; delete it", analysis.SuggestedFix{
					Message: "delete the directive",
					Edits:   []analysis.TextEdit{{Pos: c.Pos(), End: c.End()}},
				})
			}
		}
	}
	return nil
}
