package analysis_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

func loadMultiFixture(t *testing.T) (*analysis.Program, []*analysis.Package) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	// Deliberately listed with the dependency last: the scheduler must
	// order a before b and c regardless of input order.
	for _, path := range []string{"multi/b", "multi/c", "multi/a"} {
		pkg, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return loader.Program(), pkgs
}

// TestRunParallelMatchesSequential: Run must produce byte-identical
// diagnostics at any worker count, on every run, to its jobs=1
// sequential order.
func TestRunParallelMatchesSequential(t *testing.T) {
	prog, pkgs := loadMultiFixture(t)
	seq, err := analysis.Run(prog, pkgs, []*analysis.Analyzer{flagFunc}, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("sequential run found %d diagnostics, want 3 (BadA, BadB, BadC): %v", len(seq), seq)
	}
	for _, jobs := range []int{2, 8} {
		for round := 0; round < 5; round++ {
			par, err := analysis.Run(prog, pkgs, []*analysis.Analyzer{flagFunc}, true, jobs, nil)
			if err != nil {
				t.Fatalf("jobs=%d round=%d: %v", jobs, round, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("jobs=%d round=%d: parallel output diverged\n  seq %v\n  par %v", jobs, round, seq, par)
			}
		}
	}
}

// TestRunParallelOrdering: output is sorted by file, line, checker —
// independent of which worker finished first.
func TestRunParallelOrdering(t *testing.T) {
	prog, pkgs := loadMultiFixture(t)
	diags, err := analysis.Run(prog, pkgs, []*analysis.Analyzer{flagFunc}, true, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	for _, d := range diags {
		fields := strings.Fields(d.Message)
		if len(fields) >= 2 {
			funcs = append(funcs, fields[1])
		}
	}
	want := []string{"BadA", "BadB", "BadC"}
	if !reflect.DeepEqual(funcs, want) {
		t.Errorf("diagnostic order = %v, want %v", funcs, want)
	}
}

// TestDepOrder: dependencies come before dependents.
func TestDepOrder(t *testing.T) {
	prog, pkgs := loadMultiFixture(t)
	ordered := prog.DepOrder(pkgs)
	if len(ordered) != len(pkgs) {
		t.Fatalf("DepOrder dropped packages: got %d, want %d", len(ordered), len(pkgs))
	}
	idx := make(map[string]int)
	for i, pkg := range ordered {
		idx[pkg.Path] = i
	}
	if idx["multi/a"] > idx["multi/b"] || idx["multi/a"] > idx["multi/c"] {
		t.Errorf("dependency multi/a ordered after a dependent: %v", idx)
	}
}

// TestTimingsChargeCallGraphToItsOwnRow: the call graph's one-time build
// goes to analysis.CallGraphRow, not to the analyzer that asked first. A
// probe that does nothing but ask for the graph must read less than the
// build it triggered.
func TestTimingsChargeCallGraphToItsOwnRow(t *testing.T) {
	prog, pkgs := loadMultiFixture(t)
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "asks for the call graph and does nothing else",
		Run: func(pass *analysis.Pass) error {
			if pass.CallGraph() == nil {
				t.Error("no call graph")
			}
			return nil
		},
	}
	tm := analysis.NewTimings()
	if _, err := analysis.Run(prog, pkgs, []*analysis.Analyzer{probe}, true, 1, tm); err != nil {
		t.Fatal(err)
	}
	rows := map[string]analysis.TimingRow{}
	for _, r := range tm.Rows() {
		rows[r.Checker] = r
	}
	graph, ok := rows[analysis.CallGraphRow]
	if !ok || graph.Wall <= 0 {
		t.Fatalf("no %s row: %+v", analysis.CallGraphRow, tm.Rows())
	}
	if p := rows["probe"]; p.Wall >= graph.Wall {
		t.Errorf("probe charged %v, the call graph %v: the build is still charged to the analyzer", p.Wall, graph.Wall)
	}
}
