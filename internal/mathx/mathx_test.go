package mathx

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestLogFactorialSmall(t *testing.T) {
	want := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, w := range want {
		got := math.Exp(LogFactorial(n))
		if !ApproxEqual(got, w, 1e-10) {
			t.Errorf("exp(LogFactorial(%d)) = %g, want %g", n, got, w)
		}
	}
}

func TestLogFactorialNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LogFactorial(-1) did not panic")
		}
	}()
	LogFactorial(-1)
}

func TestBinomialExactValues(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {5, 2, 10}, {10, 5, 252},
		{52, 5, 2598960}, {20, 10, 184756},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); !ApproxEqual(got, c.want, 1e-9) {
			t.Errorf("Binomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialOutOfRangeIsZero(t *testing.T) {
	for _, c := range [][2]int{{5, -1}, {5, 6}, {-1, 0}, {0, 1}} {
		if got := Binomial(c[0], c[1]); got != 0 {
			t.Errorf("Binomial(%d,%d) = %g, want 0", c[0], c[1], got)
		}
		if lg := LogBinomial(c[0], c[1]); !math.IsInf(lg, -1) {
			t.Errorf("LogBinomial(%d,%d) = %g, want -Inf", c[0], c[1], lg)
		}
	}
}

// binomialInt64 returns C(n, k) using exact integer arithmetic, the
// exact oracle for Binomial. It reports an error when the value does not
// fit in an int64.
func binomialInt64(n, k int) (int64, error) {
	if k < 0 || k > n || n < 0 {
		return 0, ErrDomain
	}
	if k > n-k {
		k = n - k
	}
	var res int64 = 1
	for i := 1; i <= k; i++ {
		num := int64(n - k + i)
		// res * num may overflow; detect via division check.
		if res > math.MaxInt64/num {
			return 0, errors.New("mathx: binomial overflows int64")
		}
		res = res * num / int64(i)
	}
	return res, nil
}

func TestBinomialInt64MatchesFloat(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			exact, err := binomialInt64(n, k)
			if err != nil {
				t.Fatalf("binomialInt64(%d,%d): %v", n, k, err)
			}
			if got := Binomial(n, k); !ApproxEqual(got, float64(exact), 1e-9) {
				t.Errorf("Binomial(%d,%d) = %g, want %d", n, k, got, exact)
			}
		}
	}
}

func TestBinomialInt64Overflow(t *testing.T) {
	if _, err := binomialInt64(200, 100); err == nil {
		t.Error("binomialInt64(200,100) should overflow int64")
	}
	if _, err := binomialInt64(5, 9); err == nil {
		t.Error("binomialInt64(5,9) should report domain error")
	}
}

// Pascal's rule C(n,k) = C(n-1,k-1) + C(n-1,k) as a property test.
func TestBinomialPascalProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 1
		k := int(kRaw) % (n + 1)
		if k == 0 {
			return Binomial(n, 0) == 1
		}
		lhs := Binomial(n, k)
		rhs := Binomial(n-1, k-1) + Binomial(n-1, k)
		return ApproxEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHypergeometricSumsToOne(t *testing.T) {
	cases := []Hypergeometric{
		{N: 10, K: 4, M: 3},
		{N: 100, K: 40, M: 25},
		{N: 1000, K: 200, M: 512},
		{N: 7, K: 7, M: 3},
		{N: 7, K: 0, M: 3},
		{N: 5, K: 2, M: 0},
	}
	for _, h := range cases {
		var sum float64
		for s := h.SupportMin(); s <= h.SupportMax(); s++ {
			sum += h.PMF(s)
		}
		if !ApproxEqual(sum, 1, 1e-9) {
			t.Errorf("%+v: PMF sums to %g, want 1", h, sum)
		}
	}
}

func TestHypergeometricMeanMatchesExpectedValue(t *testing.T) {
	h := Hypergeometric{N: 500, K: 120, M: 77}
	mean := h.ExpectedValue(func(s int) float64 { return float64(s) })
	if !ApproxEqual(mean, h.Mean(), 1e-9) {
		t.Errorf("expectation %g != closed-form mean %g", mean, h.Mean())
	}
}

func TestHypergeometricKnownValue(t *testing.T) {
	// Drawing 5 cards from a 52-card deck with 13 hearts:
	// P(exactly 2 hearts) = C(13,2)*C(39,3)/C(52,5).
	h := Hypergeometric{N: 52, K: 13, M: 5}
	want := Binomial(13, 2) * Binomial(39, 3) / Binomial(52, 5)
	if got := h.PMF(2); !ApproxEqual(got, want, 1e-9) {
		t.Errorf("PMF(2) = %g, want %g", got, want)
	}
}

func TestHypergeometricLargePopulationStable(t *testing.T) {
	// Populations this large overflow direct binomials; log-space must hold.
	h := Hypergeometric{N: 100000, K: 30000, M: 50000}
	p := h.PMF(15000) // the mode: should be small but finite and positive
	if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Fatalf("PMF at mode = %g, want finite positive", p)
	}
	mean := h.Mean()
	if !ApproxEqual(mean, 15000, 1e-9) {
		t.Errorf("mean = %g, want 15000", mean)
	}
}

func TestHypergeometricInvalid(t *testing.T) {
	h := Hypergeometric{N: 5, K: 9, M: 2}
	if h.Valid() {
		t.Error("K > N should be invalid")
	}
	if !math.IsNaN(h.LogPMF(1)) {
		t.Error("LogPMF on invalid distribution should be NaN")
	}
	if !math.IsNaN(h.ExpectedValue(func(int) float64 { return 1 })) {
		t.Error("ExpectedValue on invalid distribution should be NaN")
	}
}

func TestHypergeometricSupportProperty(t *testing.T) {
	f := func(nRaw, kRaw, mRaw uint16) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw) % (n + 1)
		m := int(mRaw) % (n + 1)
		h := Hypergeometric{N: n, K: k, M: m}
		lo, hi := h.SupportMin(), h.SupportMax()
		if lo > hi {
			return false
		}
		if h.PMF(lo-1) != 0 || h.PMF(hi+1) != 0 {
			return false
		}
		var sum float64
		for s := lo; s <= hi; s++ {
			sum += h.PMF(s)
		}
		return ApproxEqual(sum, 1, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBinomial01UncappedSumsToOne(t *testing.T) {
	b := Binomial01{N: 64, P: 1.0 / 16, Cap: -1}
	var sum float64
	for x := 0; x <= b.Max(); x++ {
		sum += b.PMF(x)
	}
	if !ApproxEqual(sum, 1, 1e-9) {
		t.Errorf("uncapped PMF sums to %g", sum)
	}
	if !ApproxEqual(b.Mean(), 4, 1e-9) {
		t.Errorf("uncapped mean = %g, want 4", b.Mean())
	}
}

func TestBinomial01CappedTailMass(t *testing.T) {
	b := Binomial01{N: 40, P: 0.25, Cap: 8}
	var sum float64
	for x := 0; x <= b.Max(); x++ {
		sum += b.PMF(x)
	}
	if !ApproxEqual(sum, 1, 1e-9) {
		t.Errorf("capped PMF sums to %g, want 1", sum)
	}
	// The capped mean must be <= the uncapped mean (mass pulled down).
	un := Binomial01{N: 40, P: 0.25, Cap: -1}
	if b.Mean() > un.Mean()+1e-12 {
		t.Errorf("capped mean %g exceeds uncapped %g", b.Mean(), un.Mean())
	}
	if b.PMF(9) != 0 {
		t.Error("mass above cap should be zero")
	}
}

func TestBinomial01DegenerateP(t *testing.T) {
	b0 := Binomial01{N: 10, P: 0, Cap: -1}
	if b0.PMF(0) != 1 || b0.PMF(1) != 0 {
		t.Error("P=0 should concentrate all mass at 0")
	}
	b1 := Binomial01{N: 10, P: 1, Cap: -1}
	if !ApproxEqual(b1.PMF(10), 1, 1e-12) {
		t.Error("P=1 should concentrate all mass at N")
	}
	b1c := Binomial01{N: 10, P: 1, Cap: 4}
	if !ApproxEqual(b1c.PMF(4), 1, 1e-12) {
		t.Error("P=1 with cap 4 should concentrate all mass at the cap")
	}
}

func TestBinomial01CapZero(t *testing.T) {
	b := Binomial01{N: 12, P: 0.5, Cap: 0}
	if !ApproxEqual(b.PMF(0), 1, 1e-12) {
		t.Errorf("cap 0 should place all mass at 0, got %g", b.PMF(0))
	}
	if b.Mean() != 0 {
		t.Errorf("cap 0 mean = %g, want 0", b.Mean())
	}
}

func TestBinomial01ExpectedValueMatchesMean(t *testing.T) {
	b := Binomial01{N: 30, P: 0.1, Cap: 6}
	id := b.ExpectedValue(func(x int) float64 { return float64(x) })
	if !ApproxEqual(id, b.Mean(), 1e-12) {
		t.Errorf("E[id] = %g, Mean = %g", id, b.Mean())
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2}, {-3, 4, 0},
		{1000, 3, 334},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnZeroDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CeilDiv(1,0) did not panic")
		}
	}()
	CeilDiv(1, 0)
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestApproxEqualNearZero(t *testing.T) {
	if !ApproxEqual(0, 1e-15, 0.01) {
		t.Error("values near zero should compare equal absolutely")
	}
	if ApproxEqual(1, 1.1, 0.01) {
		t.Error("10% apart should not pass 1% tolerance")
	}
}

func BenchmarkHypergeometricExpectedValue(b *testing.B) {
	h := Hypergeometric{N: 34000, K: 1, M: 12000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ExpectedValue(func(s int) float64 { return float64(s) })
	}
}

func BenchmarkLogBinomialLarge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		LogBinomial(100000, 34567)
	}
}
