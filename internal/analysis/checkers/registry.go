package checkers

import (
	"fmt"
	"sort"
	"strings"

	"github.com/resilience-models/dvf/internal/analysis"
)

// All returns every registered checker, in stable name order.
func All() []*analysis.Analyzer {
	list := []*analysis.Analyzer{
		Determinism,
		ErrDrop,
		Exhaustive,
		HotAlloc,
		NilSink,
		Unsafemem,
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	return list
}

// Select resolves a comma-separated -only list ("nilsink,determinism")
// against the registry; an empty selection returns all checkers.
func Select(only string) ([]*analysis.Analyzer, error) {
	if strings.TrimSpace(only) == "" {
		return All(), nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown checker %q (have: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		// "-only ," and friends: a selection that names nothing must not
		// silently run nothing and report a clean pass.
		return nil, fmt.Errorf("-only %q selects no checkers", only)
	}
	return out, nil
}
