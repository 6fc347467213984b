package analysis

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Timings accumulates per-checker cost across a lint run: wall time
// spent inside each analyzer's Run (summed over packages, so on the
// parallel driver the total can exceed elapsed wall clock) and how many
// findings survived suppression. Time spent getting a shared program
// fact is charged to that fact's own row (CallGraphRow), not to the
// checker that asked first. One collector is shared by every worker; it
// is safe for concurrent use.
type Timings struct {
	mu   sync.Mutex
	wall map[string]time.Duration
	hits map[string]int
	pkgs int
}

// CallGraphRow is the row charged with Pass.CallGraph: the call graph's
// one-time build, plus any time a pass on another worker waited for it.
const CallGraphRow = "shared:callgraph"

// NewTimings returns an empty collector.
func NewTimings() *Timings {
	return &Timings{wall: map[string]time.Duration{}, hits: map[string]int{}}
}

// addWall charges one analyzer run on one package.
func (t *Timings) addWall(checker string, d time.Duration) {
	t.mu.Lock()
	t.wall[checker] += d
	t.mu.Unlock()
}

// addFindings credits surviving diagnostics to their checkers and
// counts the package as covered.
func (t *Timings) addFindings(diags []Diagnostic) {
	t.mu.Lock()
	t.pkgs++
	for _, d := range diags {
		t.hits[d.Checker]++
	}
	t.mu.Unlock()
}

// TimingRow is one checker's accumulated cost.
type TimingRow struct {
	Checker  string
	Wall     time.Duration
	Findings int
}

// Rows returns the accumulated rows, most expensive first (ties by
// name), so the checkers worth optimizing lead the table.
func (t *Timings) Rows() []TimingRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make(map[string]bool, len(t.wall)+len(t.hits))
	for n := range t.wall {
		names[n] = true
	}
	for n := range t.hits {
		names[n] = true
	}
	rows := make([]TimingRow, 0, len(names))
	for n := range names {
		rows = append(rows, TimingRow{Checker: n, Wall: t.wall[n], Findings: t.hits[n]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Wall != rows[j].Wall {
			return rows[i].Wall > rows[j].Wall
		}
		return rows[i].Checker < rows[j].Checker
	})
	return rows
}

// Table renders the rows as an aligned text table for stderr.
func (t *Timings) Table() string {
	rows := t.Rows()
	var b strings.Builder
	var total time.Duration
	wide := len("checker")
	for _, r := range rows {
		if len(r.Checker) > wide {
			wide = len(r.Checker)
		}
		total += r.Wall
	}
	fmt.Fprintf(&b, "%-*s  %12s  %9s\n", wide, "checker", "wall", "findings")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %12s  %9d\n", wide, r.Checker, r.Wall.Round(time.Microsecond), r.Findings)
	}
	t.mu.Lock()
	pkgs := t.pkgs
	t.mu.Unlock()
	fmt.Fprintf(&b, "%-*s  %12s  %9s  (%d package(s))\n", wide, "total", total.Round(time.Microsecond), "", pkgs)
	return b.String()
}

// SarifProperties renders the rows as a SARIF run property bag, so the
// per-checker cost rides along with the uploaded findings.
func (t *Timings) SarifProperties() map[string]any {
	rows := t.Rows()
	out := make([]map[string]any, 0, len(rows))
	for _, r := range rows {
		out = append(out, map[string]any{
			"checker":  r.Checker,
			"wallMs":   float64(r.Wall) / float64(time.Millisecond),
			"findings": r.Findings,
		})
	}
	t.mu.Lock()
	pkgs := t.pkgs
	t.mu.Unlock()
	return map[string]any{
		"dvfLintTimings/v1": map[string]any{
			"packages": pkgs,
			"checkers": out,
		},
	}
}
