package analysis_test

import (
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

// TestLoaderRealPackage type-checks a real module package without the go
// tool: names resolve, types flow, build-constrained files behave.
func TestLoaderRealPackage(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("github.com/resilience-models/dvf/internal/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "metrics" {
		t.Errorf("package name = %q", pkg.Types.Name())
	}
	if len(pkg.Files) == 0 {
		t.Error("no files parsed")
	}
	if len(pkg.Info.Defs) == 0 || len(pkg.Info.Uses) == 0 {
		t.Error("type info not populated")
	}
	if pkg.Types.Scope().Lookup("Registry") == nil {
		t.Error("exported Registry type not found in package scope")
	}
	again, err := loader.Load("github.com/resilience-models/dvf/internal/metrics")
	if err != nil || again != pkg {
		t.Error("Load is not memoized")
	}
}

// TestExpandRecursive resolves the "./..." pattern the driver uses,
// skipping testdata trees.
func TestExpandRecursive(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	wantOne := "github.com/resilience-models/dvf/internal/analysis/checkers"
	found := false
	for _, p := range paths {
		if p == wantOne {
			found = true
		}
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into expansion: %s", p)
		}
	}
	if !found {
		t.Errorf("expected %s in %v", wantOne, paths)
	}
}
