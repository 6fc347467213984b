package checkers

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/resilience-models/dvf/internal/analysis"
)

var updateSarif = flag.Bool("update", false, "rewrite the golden SARIF report under testdata/")

// TestNewCheckersSarifGolden pins the SARIF rendering of the errdrop
// checker byte-for-byte: its rule-table entry and the errdrop fixture's
// real findings with stable repo-relative URIs. Everything in the
// report is deterministic (sorted rules, sha256 fingerprints over
// checker+uri+message), so a golden file is exact.
func TestNewCheckersSarifGolden(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.SetTestdataRoot("testdata/src"); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("errdrop")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(loader.Program(), []*analysis.Package{pkg}, []*analysis.Analyzer{ErrDrop}, true, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("errdrop fixture produced no findings; golden would be empty")
	}
	base, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	log := analysis.SarifReport(diags, []*analysis.Analyzer{ErrDrop}, base)
	if err := log.Write(&buf); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "errdrop.sarif.golden")
	if *updateSarif {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF report drifted from golden (run with -update to regenerate):\n%s", buf.String())
	}
}
