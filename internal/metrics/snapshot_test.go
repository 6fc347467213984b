package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden text snapshot under testdata/")

// deterministicRegistry builds a registry whose snapshot is fully
// reproducible, for the diff, JSON and golden-text tests.
func deterministicRegistry() *Registry {
	r := New()
	r.Counter("trace.fanout.refs").Add(1000000)
	r.Counter("trace.fanout.batches").Add(245)
	r.Gauge("cache.shard0.misses").Set(4096)
	r.Gauge("experiments.workers").Set(8)
	h := r.Histogram("cache.drain_ns")
	for _, v := range []int64{0, 1, 3, 900, 900, 1500, 65000} {
		h.Observe(v)
	}
	tm := r.Timer("experiments.task_ns")
	tm.Observe(1500 * time.Microsecond)
	tm.Observe(2500 * time.Microsecond)
	return r
}

// TestSnapshotDiffArithmetic checks the interval semantics: counters and
// histogram counts/sums/buckets subtract, gauges keep the newer value,
// instruments missing from the base pass through.
func TestSnapshotDiffArithmetic(t *testing.T) {
	r := deterministicRegistry()
	base := r.Snapshot()

	r.Counter("trace.fanout.refs").Add(500)
	r.Gauge("cache.shard0.misses").Set(5000)
	r.Histogram("cache.drain_ns").Observe(2)
	r.Counter("stage.only_after").Add(7)

	d := r.Snapshot().Diff(base)
	if got := d.Counters["trace.fanout.refs"]; got != 500 {
		t.Errorf("diffed counter = %d, want 500", got)
	}
	if got := d.Counters["trace.fanout.batches"]; got != 0 {
		t.Errorf("unchanged counter diff = %d, want 0", got)
	}
	if got := d.Counters["stage.only_after"]; got != 7 {
		t.Errorf("new counter diff = %d, want 7", got)
	}
	if got := d.Gauges["cache.shard0.misses"]; got != 5000 {
		t.Errorf("diffed gauge = %d, want newer value 5000", got)
	}
	h := d.Histograms["cache.drain_ns"]
	if h.Count != 1 || h.Sum != 2 {
		t.Errorf("diffed histogram count/sum = %d/%d, want 1/2", h.Count, h.Sum)
	}
	if got := h.Buckets[bucketIndex(2)]; got != 1 {
		t.Errorf("diffed bucket[%d] = %d, want 1", bucketIndex(2), got)
	}
	if len(h.Buckets) != 1 {
		t.Errorf("diffed histogram kept %d unchanged buckets, want 0: %v", len(h.Buckets), h.Buckets)
	}
	if unchanged := d.Histograms["experiments.task_ns"]; unchanged.Count != 0 {
		t.Errorf("unchanged histogram diff count = %d, want 0", unchanged.Count)
	}
}

// TestSnapshotJSONRoundTrip encodes a snapshot and decodes it back,
// requiring exact structural equality — the property a -metrics file
// read back by other tooling depends on.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := deterministicRegistry().Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != SnapshotSchema {
		t.Errorf("schema = %d, want %d", back.Schema, SnapshotSchema)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("JSON round trip not identical:\nbefore %+v\nafter  %+v", s, back)
	}
}

// TestSnapshotTextGolden pins the text encoder's exact output.
func TestSnapshotTextGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := deterministicRegistry().Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.txt")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("text encoding drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestDiffOfEqualSnapshotsIsZero checks that X.Diff(X) zeroes every
// counter and histogram.
func TestDiffOfEqualSnapshotsIsZero(t *testing.T) {
	r := deterministicRegistry()
	s := r.Snapshot()
	d := s.Diff(s)
	for name, v := range d.Counters {
		if v != 0 {
			t.Errorf("self-diff counter %s = %d, want 0", name, v)
		}
	}
	for name, h := range d.Histograms {
		if h.Count != 0 || h.Sum != 0 || len(h.Buckets) != 0 {
			t.Errorf("self-diff histogram %s not zero: %+v", name, h)
		}
	}
}
