package aspen

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// The testdata models are the six Table II kernels expressed in the DSL;
// they double as documentation and as golden inputs for the compiler.

func readModel(t *testing.T, name string) (*Model, string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(string(raw))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m, string(raw)
}

func TestTestdataModelsCompileAndEvaluate(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.aspen"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("found %d testdata models, want 7", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			m, _ := readModel(t, filepath.Base(f))
			if err := Check(m); err != nil {
				t.Fatalf("check: %v", err)
			}
			ev, err := Evaluate(m)
			if err != nil {
				t.Fatalf("evaluate: %v", err)
			}
			if len(ev.Structures) == 0 {
				t.Fatal("no structures evaluated")
			}
			for _, s := range ev.Structures {
				if s.NHa <= 0 {
					t.Errorf("%s: N_ha = %g, want positive", s.Name, s.NHa)
				}
				if s.DVF < 0 {
					t.Errorf("%s: negative DVF %g", s.Name, s.DVF)
				}
			}
			if ev.Total() <= 0 {
				t.Error("DVF_a should be positive")
			}
			// Round trip through the formatter.
			reparsed, err := Parse(Format(m))
			if err != nil {
				t.Fatalf("formatted model does not parse: %v", err)
			}
			if !reflect.DeepEqual(normalized(t, m), normalized(t, reparsed)) {
				t.Error("format round trip changed the model")
			}
		})
	}
}

func TestTestdataVMMatchesPaperCounts(t *testing.T) {
	m, _ := readModel(t, "vm.aspen")
	ev, err := Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	// On the small verification cache: A 1000 accesses (stride 32 B, one
	// line each), B 500 (two elements share a 32 B line at stride 16 B...
	// B stride is 2 elements = 16 B < CL so all lines load: 16000/32),
	// C 250 (8000/32).
	for _, want := range []struct {
		name string
		nha  float64
	}{{"A", 1000}, {"B", 500}, {"C", 250}} {
		s, err := ev.Structure(want.name)
		if err != nil {
			t.Fatal(err)
		}
		if s.NHa != want.nha {
			t.Errorf("%s: N_ha = %g, want %g", want.name, s.NHa, want.nha)
		}
	}
}

func TestTestdataFFTJump(t *testing.T) {
	m, _ := readModel(t, "fft.aspen")
	// On its own 16KB machine the 32KB array thrashes: every pass misses.
	thrash, err := Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	fits, err := Evaluate(m, WithCache(cache.Profile128KB))
	if err != nil {
		t.Fatal(err)
	}
	x1, _ := thrash.Structure("X")
	x2, _ := fits.Structure("X")
	// Normalize per byte of line so different line sizes compare.
	perByteThrash := x1.NHa * 8
	perByteFits := x2.NHa * 16
	if perByteThrash < 5*perByteFits {
		t.Errorf("expected the FT jump: 16KB traffic %g vs 128KB %g", perByteThrash, perByteFits)
	}
}

func TestTestdataBarnesHutMatchesDirectRandom(t *testing.T) {
	m, _ := readModel(t, "barnes-hut.aspen")
	ev, err := Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	tRes, err := ev.Structure("T")
	if err != nil {
		t.Fatal(err)
	}
	// 32000-byte tree over an 8KB cache: initial 1000 blocks plus
	// hypergeometric reloads on every one of the 1000 iterations.
	if tRes.NHa <= 1000 {
		t.Errorf("T N_ha = %g, want well above the compulsory 1000", tRes.NHa)
	}
}

func TestTestdataCGAutoInterference(t *testing.T) {
	m, _ := readModel(t, "conjugate-gradient.aspen")
	ev, err := Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ev.Structure("A")
	p, _ := ev.Structure("p")
	r, _ := ev.Structure("r")
	// The matrix dominates: it re-streams its 2MB every iteration.
	if a.NHa < 10*p.NHa || a.NHa < 10*r.NHa {
		t.Errorf("A (%g) should dominate the vectors (p=%g, r=%g)", a.NHa, p.NHa, r.NHa)
	}
}

// nha is one structure's pinned N_ha.
type nha struct {
	name string
	want float64
}

// TestTestdataModelsPinNHa pins every bundled model's per-structure N_ha
// on its own machine cache and on both verification caches, so a change
// to a pattern's estimator that moves any count fails here rather than
// passing the positivity checks above. The values are those of a replay
// of every template repeat; steady-state extrapolation must reproduce
// them exactly.
func TestTestdataModelsPinNHa(t *testing.T) {
	cases := []struct {
		file, cache string
		want        []nha
	}{
		{"barnes-hut.aspen", "machine", []nha{{"T", 149800}, {"P", 2000}}},
		{"barnes-hut.aspen", "small", []nha{{"T", 149800}, {"P", 2000}}},
		{"barnes-hut.aspen", "large", []nha{{"T", 500}, {"P", 500}}},
		{"conjugate-gradient.aspen", "machine", []nha{{"A", 625000}, {"x", 1250}, {"p", 125}, {"r", 1375}}},
		{"conjugate-gradient.aspen", "small", []nha{{"A", 625000}, {"x", 1250}, {"p", 125}, {"r", 1375}}},
		{"conjugate-gradient.aspen", "large", []nha{{"A", 31250}, {"x", 63}, {"p", 63}, {"r", 63}}},
		{"fft.aspen", "machine", []nha{{"X", 49152}}},
		{"fft.aspen", "small", []nha{{"X", 12288}}},
		{"fft.aspen", "large", []nha{{"X", 512}}},
		{"montecarlo.aspen", "machine", []nha{{"G", 25996.36}, {"E", 68912.4}}},
		{"montecarlo.aspen", "small", []nha{{"G", 25996.36}, {"E", 68912.4}}},
		{"montecarlo.aspen", "large", []nha{{"G", 12500}, {"E", 22500}}},
		{"multigrid.aspen", "machine", []nha{{"R", 880}}},
		{"multigrid.aspen", "small", []nha{{"R", 880}}},
		{"multigrid.aspen", "large", []nha{{"R", 440}}},
		{"pcg.aspen", "machine", []nha{{"A", 31250}, {"M", 15657}, {"x", 63}, {"p", 63}, {"r", 63}, {"z", 63}}},
		{"pcg.aspen", "small", []nha{{"A", 375000}, {"M", 187878}, {"x", 750}, {"p", 125}, {"r", 125}, {"z", 875}}},
		{"pcg.aspen", "large", []nha{{"A", 31250}, {"M", 15657}, {"x", 63}, {"p", 63}, {"r", 63}, {"z", 63}}},
		{"vm.aspen", "machine", []nha{{"A", 1000}, {"B", 500}, {"C", 250}}},
		{"vm.aspen", "small", []nha{{"A", 1000}, {"B", 500}, {"C", 250}}},
		{"vm.aspen", "large", []nha{{"A", 500}, {"B", 250}, {"C", 125}}},
	}
	for _, c := range cases {
		t.Run(c.file+"/"+c.cache, func(t *testing.T) {
			m, _ := readModel(t, c.file)
			checkNHa(t, m, c.cache, c.want)
		})
	}
}

// TestTestdataFFTPassesPinNHa pins fft.aspen's N_ha across repeat counts:
// one pass (no later period to extrapolate), two and three (the state
// repeats at the last period or just before it) and twice the bundled
// twelve. The 32 KB array thrashes its own 16 KB cache and the 8 KB
// Small cache, costing every block on every pass, and fits the 4 MB
// Large cache, costing each block once.
func TestTestdataFFTPassesPinNHa(t *testing.T) {
	_, src := readModel(t, "fft.aspen")
	for _, c := range []struct {
		passes                int
		machine, small, large float64
	}{
		{1, 4096, 1024, 512},
		{2, 8192, 2048, 512},
		{3, 12288, 3072, 512},
		{24, 98304, 24576, 512},
	} {
		t.Run(fmt.Sprintf("passes=%d", c.passes), func(t *testing.T) {
			decl := "param passes = 12"
			if !strings.Contains(src, decl) {
				t.Fatalf("fft.aspen no longer declares %q", decl)
			}
			m, err := Parse(strings.Replace(src, decl, fmt.Sprintf("param passes = %d", c.passes), 1))
			if err != nil {
				t.Fatal(err)
			}
			checkNHa(t, m, "machine", []nha{{"X", c.machine}})
			checkNHa(t, m, "small", []nha{{"X", c.small}})
			checkNHa(t, m, "large", []nha{{"X", c.large}})
		})
	}
}

// checkNHa evaluates m on the named cache ("machine" for the model's own
// machine block, "small" or "large" for a verification cache) and
// requires exactly the wanted structures, in order, with exactly the
// wanted N_ha.
func checkNHa(t *testing.T, m *Model, cacheName string, want []nha) {
	t.Helper()
	var opts []Option
	switch cacheName {
	case "small":
		opts = append(opts, WithCache(cache.Small))
	case "large":
		opts = append(opts, WithCache(cache.Large))
	}
	ev, err := Evaluate(m, opts...)
	if err != nil {
		t.Fatalf("%s: %v", cacheName, err)
	}
	got := make([]nha, len(ev.Structures))
	for i, s := range ev.Structures {
		got[i] = nha{s.Name, s.NHa}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s cache: N_ha %v, want %v", cacheName, got, want)
	}
}

// BenchmarkAspenEvaluate times what perfbench reports as
// aspen.evaluate_us.<model>: Evaluate on a parsed bundled model against
// its own machine cache. fft is the template model whose 12 repeats
// dominate its cost; its 8-byte lines split every element, so it walks
// no line runs. multigrid's 32-byte lines give its ranged stencil runs
// of up to four steps.
func BenchmarkAspenEvaluate(b *testing.B) {
	for _, name := range []string{"fft", "multigrid"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".aspen"))
		if err != nil {
			b.Fatal(err)
		}
		m, err := Parse(string(raw))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
