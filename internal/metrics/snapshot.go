package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SnapshotSchema versions the encoded snapshot layout; bump it whenever a
// field changes meaning so downstream tooling (-metrics files, CI
// artifacts) can refuse mismatched inputs instead of misreading them.
const SnapshotSchema = 1

// Snapshot is a frozen, encodable view of a registry. The zero Snapshot is
// valid and empty (it is what a nil registry produces).
type Snapshot struct {
	Schema     int                          `json:"schema"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current state. A nil registry
// yields an empty snapshot. Concurrent updates may land mid-capture; each
// instrument is individually consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchema}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Diff returns the interval delta s - base: counters and histogram
// counts/sums/buckets subtract, gauges keep s's instantaneous value, and
// instruments absent from base pass through unchanged. Diffing a snapshot
// against an earlier one of the same registry isolates one stage's
// contribution from a long-lived pipeline.
func (s Snapshot) Diff(base Snapshot) Snapshot {
	out := Snapshot{Schema: s.Schema}
	for name, v := range s.Counters {
		if out.Counters == nil {
			out.Counters = make(map[string]int64, len(s.Counters))
		}
		out.Counters[name] = v - base.Counters[name]
	}
	for name, v := range s.Gauges {
		if out.Gauges == nil {
			out.Gauges = make(map[string]int64, len(s.Gauges))
		}
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		if out.Histograms == nil {
			out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		}
		out.Histograms[name] = h.diff(base.Histograms[name])
	}
	return out
}

// WriteJSON encodes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as sorted, aligned "name value" lines —
// counters and gauges verbatim, histograms as a count/mean/p50/p90/p99/max
// digest. The output is deterministic for a given snapshot, so it is
// golden-testable and diff-friendly.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "%-40s %d\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "%-40s count=%d mean=%.1f p50<=%d p90<=%d p99<=%d max=%d\n",
			name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
