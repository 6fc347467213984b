package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// Golden-file tests for the CSV writers: every figure's CSV is checked in
// under testdata/ and each sweep must reproduce it byte for byte — under
// both the strictly sequential path (-workers=1, no goroutines at all)
// and the default parallel fan-out — proving that neither the concurrency
// schedule nor the simulation engine leaks into the output.
//
// Regenerate with:
//
//	go test ./internal/experiments/ -run TestGolden -update
//
// The goldens encode exact float formatting, so they are tied to this
// repository's reference platform (amd64); on an architecture whose
// compiler fuses multiply-adds differently, regenerate rather than chase
// last-ulp differences.
var update = flag.Bool("update", false, "rewrite the golden CSV files under testdata/")

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden CSVs are pinned to the amd64 reference platform; GOARCH=%s fuses multiply-adds differently", runtime.GOARCH)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output is not byte-identical to the golden file (len %d vs %d)",
			name, len(got), len(want))
	}
}

func TestGoldenFig4CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full verification sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is engine-agnostic; race runs cover the fan-outs elsewhere")
	}
	render := func(workers int) []byte {
		res, err := RunFig4(Env{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	goldenCompare(t, "fig4.csv", seq)
	if par := render(0); !bytes.Equal(seq, par) {
		t.Error("parallel Fig4 CSV differs from the sequential run")
	}
	// workers=4 is the bounded fan-out: at most four cells in flight.
	if bounded := render(4); !bytes.Equal(seq, bounded) {
		t.Error("4-cell fan-out Fig4 CSV differs from the sequential run")
	}
}

func TestGoldenFig5CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is engine-agnostic; race runs cover the fan-outs elsewhere")
	}
	render := func(workers int) []byte {
		res, err := RunFig5(Env{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	goldenCompare(t, "fig5.csv", seq)
	if par := render(0); !bytes.Equal(seq, par) {
		t.Error("parallel Fig5 CSV differs from the sequential run")
	}
}

func TestGoldenFig6CSV(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweep is slow")
	}
	if raceEnabled {
		t.Skip("byte-identity is engine-agnostic; race runs cover the fan-outs elsewhere")
	}
	render := func(workers int) []byte {
		res, err := RunFig6(Env{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(1)
	goldenCompare(t, "fig6.csv", seq)
	if par := render(0); !bytes.Equal(seq, par) {
		t.Error("parallel Fig6 CSV differs from the sequential run")
	}
}

func TestGoldenFig7CSV(t *testing.T) {
	res, err := RunFig7(Env{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "fig7.csv", buf.Bytes())
}
