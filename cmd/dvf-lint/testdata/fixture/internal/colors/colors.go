// Package colors is the dvf-lint CLI test fixture. Every finding in it
// carries a suggested fix — a default-less enum switch with missing
// cases, a stale //dvf:allow directive and one naming a retired
// checker — so `dvf-lint -fix` drives
// the module from exit 1 to a clean, gofmt-idempotent exit 0.
package colors

// Color is a module-local enum the exhaustive checker tracks.
type Color int

const (
	Red Color = iota
	Green
	Blue
)

// Name labels a color but misses two constants.
func Name(c Color) string {
	switch c {
	case Red:
		return "red"
	}
	return "unknown"
}

// Last returns the highest color; the directive above the return
// suppresses nothing and should be deleted by -fix.
func Last() int {
	//dvf:allow exhaustive the switch above already covers every color
	return int(Blue)
}

// First returns the lowest color; the directive above the return names
// a checker that no longer exists and should be deleted by -fix.
func First() int {
	//dvf:allow patterndrift the descriptor was re-derived by hand
	return int(Red)
}
