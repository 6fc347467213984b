// Package mathx provides the combinatorial and probabilistic primitives
// that underpin the CGPMAC analytical models of the DVF paper (SC 2014):
// log-space binomial coefficients, the hypergeometric distribution used by
// Equations 5-7 and 12, and binomial (Bernoulli-trial) set-occupancy
// distributions used by Equation 8.
//
// All heavy computations run in log space so that the models remain stable
// for the large populations that appear in DVF profiling (for example the
// 10^5-element Monte Carlo energy grid), where direct binomial coefficients
// overflow float64 almost immediately.
package mathx

import (
	"errors"
	"math"
)

// ErrDomain is returned (or wrapped) when a distribution is evaluated
// outside its support or constructed with invalid parameters.
var ErrDomain = errors.New("mathx: parameter outside domain")

// LogFactorial returns ln(n!) computed via the log-gamma function.
// It panics if n is negative, since a negative factorial indicates a
// programming error in a caller rather than a data-dependent condition.
func LogFactorial(n int) float64 {
	if n < 0 {
		panic("mathx: LogFactorial of negative n")
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// LogBinomial returns ln(C(n, k)). Out-of-range k (k < 0 or k > n) yields
// -Inf, matching the convention that the corresponding coefficient is zero;
// this lets hypergeometric sums skip impossible terms without special cases.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Binomial returns C(n, k) as a float64. For arguments whose result exceeds
// the float64 range the result is +Inf; callers needing large-population
// ratios should stay in log space via LogBinomial.
func Binomial(n, k int) float64 {
	return math.Exp(LogBinomial(n, k))
}

// Hypergeometric is the distribution of the number of "successes" drawn
// when sampling m items without replacement from a population of size n
// containing k successes.
//
// In the random-access model of the paper (Equation 5), the population is
// the N elements of a data structure, the m draws are the elements resident
// in the cache partition, and the k successes are the distinct elements
// visited in one iteration; X = k - (successes drawn) is then the number of
// visited elements that miss the cache.
type Hypergeometric struct {
	N int // population size
	K int // number of success states in the population
	M int // number of draws
}

// Valid reports whether the parameters describe a proper distribution.
func (h Hypergeometric) Valid() bool {
	return h.N >= 0 && h.K >= 0 && h.M >= 0 && h.K <= h.N && h.M <= h.N
}

// SupportMin returns the smallest value with nonzero probability.
func (h Hypergeometric) SupportMin() int {
	return maxInt(0, h.M+h.K-h.N)
}

// SupportMax returns the largest value with nonzero probability.
func (h Hypergeometric) SupportMax() int {
	return minInt(h.M, h.K)
}

// LogPMF returns ln P(successes = s). Values outside the support yield -Inf.
func (h Hypergeometric) LogPMF(s int) float64 {
	if !h.Valid() {
		return math.NaN()
	}
	if s < h.SupportMin() || s > h.SupportMax() {
		return math.Inf(-1)
	}
	return LogBinomial(h.K, s) + LogBinomial(h.N-h.K, h.M-s) - LogBinomial(h.N, h.M)
}

// PMF returns P(successes = s).
func (h Hypergeometric) PMF(s int) float64 {
	return math.Exp(h.LogPMF(s))
}

// Mean returns E[successes] = M*K/N.
func (h Hypergeometric) Mean() float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.M) * float64(h.K) / float64(h.N)
}

// ExpectedValue returns E[f(S)] where S is hypergeometric, by summing over
// the full support. f is evaluated once per support point.
func (h Hypergeometric) ExpectedValue(f func(s int) float64) float64 {
	if !h.Valid() {
		return math.NaN()
	}
	var sum float64
	for s := h.SupportMin(); s <= h.SupportMax(); s++ {
		sum += h.PMF(s) * f(s)
	}
	return sum
}

// Binomial01 is a binomial distribution B(n, p) truncated and "capped" at a
// ceiling c: all probability mass of outcomes >= c is accumulated onto c.
//
// This realizes Equation 8 of the paper: a data structure of F blocks places
// each block into one of NA cache sets with probability p = 1/NA (a
// Bernoulli trial per block), and a single set can hold at most CA
// (associativity) of them, so the occupancy distribution is the binomial
// capped at the associativity.
type Binomial01 struct {
	N   int     // number of trials (blocks of the data structure)
	P   float64 // success probability (1 / number-of-sets)
	Cap int     // ceiling (cache associativity); Cap < 0 means "no cap"
}

// Valid reports whether the parameters describe a proper distribution.
func (b Binomial01) Valid() bool {
	return b.N >= 0 && b.P >= 0 && b.P <= 1
}

// logPMFRaw is the uncapped binomial log-PMF.
func (b Binomial01) logPMFRaw(x int) float64 {
	if x < 0 || x > b.N {
		return math.Inf(-1)
	}
	switch {
	case b.P == 0:
		if x == 0 {
			return 0
		}
		return math.Inf(-1)
	case b.P == 1:
		if x == b.N {
			return 0
		}
		return math.Inf(-1)
	}
	return LogBinomial(b.N, x) + float64(x)*math.Log(b.P) + float64(b.N-x)*math.Log1p(-b.P)
}

// PMF returns P(X = x) with the capping rule applied: when Cap >= 0 and
// x == Cap, the result is P(raw X >= Cap); when x > Cap the result is 0.
func (b Binomial01) PMF(x int) float64 {
	if !b.Valid() || x < 0 {
		return 0
	}
	if b.Cap < 0 || x < b.Cap {
		return math.Exp(b.logPMFRaw(x))
	}
	if x > b.Cap {
		return 0
	}
	// Tail mass P(raw >= Cap).
	var tail float64
	for i := b.Cap; i <= b.N; i++ {
		tail += math.Exp(b.logPMFRaw(i))
	}
	return tail
}

// Max returns the largest outcome with nonzero probability.
func (b Binomial01) Max() int {
	if b.Cap >= 0 && b.Cap < b.N {
		return b.Cap
	}
	return b.N
}

// Mean returns the expectation of the capped distribution.
func (b Binomial01) Mean() float64 {
	var sum float64
	for x := 0; x <= b.Max(); x++ {
		sum += float64(x) * b.PMF(x)
	}
	return sum
}

// ExpectedValue returns E[f(X)] over the capped distribution.
func (b Binomial01) ExpectedValue(f func(x int) float64) float64 {
	var sum float64
	for x := 0; x <= b.Max(); x++ {
		sum += b.PMF(x) * f(x)
	}
	return sum
}

// CeilDiv returns ceil(a/b) for positive b. It panics when b <= 0, which in
// the models would mean a zero-sized cache line or element.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("mathx: CeilDiv with non-positive divisor")
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ApproxEqual reports whether a and b agree within relative tolerance rel
// (falling back to absolute tolerance for values near zero).
func ApproxEqual(a, b, rel float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1e-12 {
		return diff < 1e-12
	}
	return diff/scale <= rel
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
