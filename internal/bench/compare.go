package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Delta is one cell's median movement between two manifests.
type Delta struct {
	Key      string  // pkg:benchmark
	Old, New float64 // baseline and current median, ns/op
	Bound    float64 // the baseline cell's bound, a fraction
}

// Regressed reports whether the current median exceeds the baseline's
// by more than the baseline cell's bound.
func (d Delta) Regressed() bool { return d.New > d.Old*(1+d.Bound) }

// CompareResult is the outcome of matching a fresh manifest against a
// baseline.
type CompareResult struct {
	// HostDiffs lists the host fields (cpu model, CPU count, GOMAXPROCS,
	// platform) that differ between the two manifests. When any does, a
	// timing says nothing about the code, so timings are reported and not
	// gated; coverage is gated either way.
	HostDiffs []string
	Deltas    []Delta // every cell in both manifests, in key order
	OnlyOld   []string
	OnlyNew   []string
}

// Regressions returns the gated cells past their bound: none when the
// manifests come from different hosts.
func (r *CompareResult) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if len(r.HostDiffs) == 0 && d.Regressed() {
			out = append(out, d)
		}
	}
	return out
}

// Failed reports whether the gate should fail the run: a gated timing
// regression, or a cell in only one of the two manifests.
func (r *CompareResult) Failed() bool {
	return len(r.Regressions()) > 0 || len(r.OnlyOld) > 0 || len(r.OnlyNew) > 0
}

// Compare matches new cells to old by key. A cell whose median exceeds
// the baseline median by more than the baseline cell's bound is a
// regression, unless the two manifests come from different hosts. A cell
// on only one side always fails: a benchmark that stopped running, or one
// the baseline does not cover yet, would otherwise pass unseen.
func Compare(old, new *Manifest) *CompareResult {
	res := &CompareResult{HostDiffs: hostDiffs(old, new)}
	oldCells := make(map[string]Cell, len(old.Cells))
	for _, c := range old.Cells {
		oldCells[c.Key()] = c
	}
	seen := make(map[string]bool, len(new.Cells))
	for _, c := range new.Cells {
		key := c.Key()
		seen[key] = true
		if base, ok := oldCells[key]; ok {
			res.Deltas = append(res.Deltas, Delta{Key: key, Old: base.Median, New: c.Median, Bound: base.Bound})
		} else {
			res.OnlyNew = append(res.OnlyNew, key)
		}
	}
	for key := range oldCells {
		if !seen[key] {
			res.OnlyOld = append(res.OnlyOld, key)
		}
	}
	sort.Slice(res.Deltas, func(i, j int) bool { return res.Deltas[i].Key < res.Deltas[j].Key })
	sort.Strings(res.OnlyOld)
	sort.Strings(res.OnlyNew)
	return res
}

// hostDiffs describes every host field that differs between the baseline
// and the current manifest.
func hostDiffs(old, new *Manifest) []string {
	var diffs []string
	for _, f := range [][3]string{
		{"cpu", old.CPU, new.CPU},
		{"num_cpu", fmt.Sprint(old.NumCPU), fmt.Sprint(new.NumCPU)},
		{"GOMAXPROCS", fmt.Sprint(old.GOMAXPROCS), fmt.Sprint(new.GOMAXPROCS)},
		{"platform", old.GOOS + "/" + old.GOARCH, new.GOOS + "/" + new.GOARCH},
	} {
		if f[1] != f[2] {
			diffs = append(diffs, fmt.Sprintf("%s %q vs %q", f[0], f[1], f[2]))
		}
	}
	return diffs
}

// Render writes the human-readable comparison report: why timings are
// not gated, if they are not, then one line per cell.
func (r *CompareResult) Render(w io.Writer) error {
	var b strings.Builder
	if len(r.HostDiffs) > 0 {
		fmt.Fprintf(&b, "timings not gated: the baseline was captured on another host (%s)\n",
			strings.Join(r.HostDiffs, "; "))
	}
	for _, d := range r.Deltas {
		mark := ""
		if len(r.HostDiffs) == 0 && d.Regressed() {
			mark = "REGRESSION"
		}
		fmt.Fprintf(&b, "%-10s %+7.1f%% (bound %3.0f%%) %14.1f -> %14.1f ns/op  %s\n",
			mark, (d.New-d.Old)/d.Old*100, d.Bound*100, d.Old, d.New, d.Key)
	}
	for _, key := range r.OnlyOld {
		fmt.Fprintf(&b, "MISSING    only in baseline: %s\n", key)
	}
	for _, key := range r.OnlyNew {
		fmt.Fprintf(&b, "MISSING    only in this run: %s\n", key)
	}
	gated := "gated"
	if len(r.HostDiffs) > 0 {
		gated = "not gated"
	}
	fmt.Fprintf(&b, "%d regressions (timings %s), %d cells only in the baseline, %d only in this run\n",
		len(r.Regressions()), gated, len(r.OnlyOld), len(r.OnlyNew))
	_, err := io.WriteString(w, b.String())
	return err
}
