package kernels

import (
	"math"
	"math/cmplx"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// naiveDFT computes the reference O(n^2) transform of the kernel's input.
func naiveDFT(n int) []complex128 {
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(math.Sin(0.3*float64(i)), 0)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += in[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

// TestFTMatchesNaiveDFT checks the transform Run performs output by
// output against the naive DFT: any misordered pass permutes or mixes the
// outputs while keeping their total power, so comparing Run's checksum
// alone would pass it.
func TestFTMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{64, 512} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(math.Sin(0.3*float64(i)), 0)
		}
		m := newMemory(nil)
		transform(m.mem, m.alloc("X", int64(n)*ftElemSize), x)
		var power float64
		for k, want := range naiveDFT(n) {
			if d := cmplx.Abs(x[k] - want); d > 1e-9*float64(n) {
				t.Fatalf("n=%d: X[%d] = %v, DFT %v (|diff| %g)", n, k, x[k], want, d)
			}
			power += real(x[k])*real(x[k]) + imag(x[k])*imag(x[k])
		}
		info, err := NewFT(n).Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.Checksum != power {
			t.Errorf("n=%d: Run's output power %g, transform's %g", n, info.Checksum, power)
		}
	}
}

func TestFTParsevalProperty(t *testing.T) {
	// Parseval: sum |X_k|^2 = n * sum |x_j|^2 for the unnormalized DFT.
	const n = 256
	var input float64
	for i := 0; i < n; i++ {
		v := math.Sin(0.3 * float64(i))
		input += v * v
	}
	info, err := NewFT(n).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n) * input
	if math.Abs(info.Checksum-want) > 1e-6*want {
		t.Errorf("Parseval violated: output power %g, want %g", info.Checksum, want)
	}
}

func TestFTWorkingSetMatchesPaper(t *testing.T) {
	info, err := NewFT(2048).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper quotes FT's working set as ~33KB; 2048 complex128 = 32KB.
	if info.Structures[0].Bytes != 2048*16 {
		t.Errorf("X bytes = %d, want 32768", info.Structures[0].Bytes)
	}
	if info.Measured["passes"] != 12 { // bit reversal + 11 butterfly stages
		t.Errorf("passes = %g, want 12", info.Measured["passes"])
	}
}

func TestFTModelWithin15Percent(t *testing.T) {
	for _, cfg := range cache.VerificationConfigs() {
		k := NewFT(2048)
		info, sim := runTraced(t, k, cfg)
		if e := modelError(t, k, info, sim, "X"); math.Abs(e) > 0.15 {
			t.Errorf("FT X on %s: model error %.1f%%", cfg.Name, e*100)
		}
	}
}

// The Figure 5(e) behaviour: once the cache is smaller than the array,
// every pass misses and the access count jumps by roughly the pass count.
func TestFTSuddenJumpBelowWorkingSet(t *testing.T) {
	k := NewFT(2048) // 32KB working set
	info, err := k.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := k.Models(info)
	if err != nil {
		t.Fatal(err)
	}
	est := specs[0].Estimator
	fits, err := est.MemoryAccesses(cache.Profile128KB)
	if err != nil {
		t.Fatal(err)
	}
	thrash, err := est.MemoryAccesses(cache.Profile16KB)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize per block (the two configs have different line sizes).
	fitsPerByte := fits * float64(cache.Profile128KB.LineSize)
	thrashPerByte := thrash * float64(cache.Profile16KB.LineSize)
	ratio := thrashPerByte / fitsPerByte
	if ratio < 5 {
		t.Errorf("expected a sudden jump below 32KB; per-byte traffic ratio %.1f", ratio)
	}
}

func TestFTValidate(t *testing.T) {
	for _, bad := range []*FT{{N: 3}, {N: 100}, {N: 2}, {N: 8, Rounds: -1}} {
		if _, err := bad.Run(nil); err == nil {
			t.Errorf("invalid %+v ran", bad)
		}
	}
}

func TestFTRoundsRepeatTemplate(t *testing.T) {
	one, err := (&FT{N: 256, Rounds: 1}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := (&FT{N: 256, Rounds: 2}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if two.Refs != 2*one.Refs {
		t.Errorf("refs: 1 round %d, 2 rounds %d", one.Refs, two.Refs)
	}
}
