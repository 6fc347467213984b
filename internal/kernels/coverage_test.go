package kernels

import (
	"math"
	"strings"
	"testing"
)

// TestTableIIMetadataComplete exercises every kernel's descriptive surface
// in one place: names, classes and pattern summaries all match Table II.
func TestTableIIMetadataComplete(t *testing.T) {
	want := map[string][2]string{
		"VM": {"Dense linear algebra", "Streaming"},
		"CG": {"Sparse linear algebra", "Template+Reuse+Streaming"},
		"NB": {"N-body method", "Random"},
		"MG": {"Structured grids", "Template-based"},
		"FT": {"Spectral methods", "Template-based"},
		"MC": {"Monte Carlo", "Random"},
	}
	for _, k := range VerificationSuite() {
		w, ok := want[k.Name()]
		if !ok {
			t.Fatalf("unexpected kernel %s", k.Name())
		}
		if k.Class() != w[0] {
			t.Errorf("%s class = %q, want %q", k.Name(), k.Class(), w[0])
		}
		if k.PatternSummary() != w[1] {
			t.Errorf("%s patterns = %q, want %q", k.Name(), k.PatternSummary(), w[1])
		}
	}
	pcg := (&PCG{N: 10, MaxIters: 1})
	if pcg.Class() == "" || pcg.PatternSummary() == "" {
		t.Error("PCG metadata empty")
	}
}

// TestEveryKernelInjectsEveryStructure fires one fault into every major
// structure of every kernel: runs must complete (possibly corrupted) or
// fail with the crash sentinel — never panic outward.
func TestEveryKernelInjectsEveryStructure(t *testing.T) {
	for _, k := range []Kernel{
		NewVM(200), NewCG(40, 2), NewNB(100), NewMG(16, 1), NewFT(128), NewMC(200),
	} {
		inj, ok := k.(Injectable)
		if !ok {
			t.Fatalf("%s is not injectable", k.Name())
		}
		golden, err := k.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range golden.Structures {
			fault := Fault{
				Structure:  st.Name,
				ByteOffset: st.Bytes / 2,
				Bit:        5,
				AtRef:      golden.Refs / 3,
			}
			if fault.AtRef < 1 {
				fault.AtRef = 1
			}
			if _, err := inj.RunInjected(fault, nil); err != nil && !isFaultCrash(err) {
				t.Errorf("%s/%s: unexpected error class: %v", k.Name(), st.Name, err)
			}
		}
		// Unknown structures are rejected up front.
		if _, err := inj.RunInjected(Fault{Structure: "???", AtRef: 1}, nil); err == nil {
			t.Errorf("%s accepted an unknown fault target", k.Name())
		}
	}
}

// TestAspenSourceGenerationInPackage smoke-tests every generator without
// needing the aspen package: the source must carry the model header, the
// kernel's structures, and a machine block.
func TestAspenSourceGenerationInPackage(t *testing.T) {
	for _, k := range []Kernel{
		NewVM(100), NewCG(40, 2), NewNB(100), NewFT(128), NewMC(200),
	} {
		src, ok := k.(AspenSourcer)
		if !ok {
			t.Fatalf("%s has no Aspen generator", k.Name())
		}
		info, err := k.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		text, err := src.AspenSource(info)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, "model ") || !strings.Contains(text, "machine {") {
			t.Errorf("%s source incomplete:\n%s", k.Name(), text)
		}
		for _, st := range info.Structures {
			if !strings.Contains(text, "data "+st.Name+" ") {
				t.Errorf("%s source missing structure %s", k.Name(), st.Name)
			}
		}
		// Invalid run info must be rejected, not rendered.
		if _, err := src.AspenSource(&RunInfo{Measured: map[string]float64{}}); err == nil &&
			(k.Name() == "CG" || k.Name() == "NB" || k.Name() == "FT") {
			t.Errorf("%s generated source from empty profiling data", k.Name())
		}
	}
}

// TestStoreModelsInPackage exercises the three store modelers directly.
func TestStoreModelsInPackage(t *testing.T) {
	for _, k := range []StoreModeler{NewVM(100), NewMG(16, 1), NewFT(128)} {
		info, err := k.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := k.StoreModels(info)
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) == 0 {
			t.Errorf("%s: no store models", k.Name())
		}
		for _, spec := range specs {
			if _, err := info.Structure(spec.Structure); err != nil {
				t.Errorf("%s: store model for unknown structure %q", k.Name(), spec.Structure)
			}
		}
	}
}

func TestFlipPrimitives(t *testing.T) {
	var f32 float32
	if err := float32Flip(&f32, 3, 7); err != nil {
		t.Fatal(err)
	}
	// The sign flip turns +0 into -0, equal under ==; compare bits.
	if math.Float32bits(f32) != 1<<31 {
		t.Errorf("float32 sign flip bits = %x", math.Float32bits(f32))
	}
	if err := float32Flip(&f32, 4, 0); err == nil {
		t.Error("out-of-range float32 byte accepted")
	}
	var i32 int32
	if err := int32Flip(&i32, 0, 0); err != nil {
		t.Fatal(err)
	}
	if i32 != 1 {
		t.Errorf("int32 flip = %d, want 1", i32)
	}
	if err := int32Flip(&i32, 9, 0); err == nil {
		t.Error("out-of-range int32 byte accepted")
	}
}
