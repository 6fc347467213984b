// Package quiet violates nothing: the CLI must exit 0 over it, under
// every -only selection too.
package quiet

// Sum is plain, deterministic arithmetic.
func Sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Mode is a module-local enum the exhaustive checker tracks.
type Mode int

const (
	Fast Mode = iota
	Exact
)

// Scale gives every mode but Exact the unit scale. The directive is a
// used suppression: every -only run, whichever checkers it skips, must
// leave it alone.
func Scale(m Mode) int {
	//dvf:allow exhaustive every mode but Exact shares the unit scale
	switch m {
	case Exact:
		return 2
	}
	return 1
}
