package tracez

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRoundTrip drives the full producer→encoder→parser→validator path
// on an in-memory tracer.
func TestRoundTrip(t *testing.T) {
	tr := New()
	tk := tr.Track("shard0")
	outer := tk.Begin("replay")
	inner := tk.Begin("batch")
	time.Sleep(time.Millisecond)
	inner.EndArgs(Arg{Key: "recs", Val: 4096})
	outer.End()
	c := tr.Counter("queue_depth")
	c.Sample(3)
	c.Sample(0)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := ValidateReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("emitted trace fails validation: %v\n%s", err, buf.String())
	}

	var phases []string
	for _, ev := range events {
		phases = append(phases, ev.Ph)
	}
	counts := map[string]int{}
	for _, p := range phases {
		counts[p]++
	}
	if counts["X"] != 2 || counts["C"] != 2 || counts["M"] != 2 || len(counts) != 3 {
		t.Fatalf("unexpected phase census %v (want 2 X, 2 C, 2 M)", counts)
	}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Name == "batch" {
			if ev.Args["recs"] != float64(4096) {
				t.Errorf("batch span args = %v, want recs=4096", ev.Args)
			}
			if ev.Dur < 900 { // slept 1ms; microseconds
				t.Errorf("batch span dur = %vµs, want >= 900", ev.Dur)
			}
		}
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] != "shard0" {
			t.Errorf("thread_name args = %v, want shard0", ev.Args)
		}
	}
}

// TestDeterministicTimebase checks that timestamps are relative to the
// tracer's creation: the first span of a fresh tracer starts near zero,
// not at wall-clock epoch scale.
func TestDeterministicTimebase(t *testing.T) {
	tr := New()
	tr.Track("t").Begin("first").End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Ph == "X" && ev.Ts > 1e6 { // > 1s after creation is not "relative"
			t.Errorf("span ts = %vµs; timestamps must be creation-relative", ev.Ts)
		}
	}
}

func TestStreaming(t *testing.T) {
	var buf bytes.Buffer
	tr := NewStreaming(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		tk := tr.Track("worker")
		wg.Add(1)
		go func(tk *Track) {
			defer wg.Done()
			for i := 0; i < 3000; i++ { // 4×3000 spans force several spills
				tk.Begin("unit").End()
			}
		}(tk)
	}
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil { // Close must be idempotent
		t.Fatal(err)
	}
	events, err := ValidateReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("streamed trace fails validation: %v", err)
	}
	spans := 0
	for _, ev := range events {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 12000 {
		t.Fatalf("streamed %d spans, want 12000", spans)
	}
	// Events after Close are dropped, not appended past the closing bracket.
	tr.Track("late").Begin("dropped").End()
	if _, err := ValidateReader(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("post-Close event corrupted the trace: %v", err)
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

func TestStreamingWriteError(t *testing.T) {
	tr := NewStreaming(&failWriter{after: 2})
	tk := tr.Track("t")
	for i := 0; i < 2*spillBatch; i++ {
		tk.Begin("s").End()
	}
	if err := tr.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close() = %v, want the latched write error", err)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("t")
	if tk != nil {
		t.Fatal("nil tracer must hand out a nil track")
	}
	sp := tk.Begin("s")
	sp.End()
	sp.EndArgs(Arg{Key: "k", Val: 1})
	c := tr.Counter("c")
	if c != nil {
		t.Fatal("nil tracer must hand out a nil counter")
	}
	c.Sample(42)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateReader(&buf); err != nil {
		t.Fatalf("nil tracer must still write a valid empty trace: %v", err)
	}
	(Span{}).End() // the zero span is inert too
}

// TestNilRecorderZeroAlloc is the zero-overhead contract: a nil
// recorder's event sites must not allocate on the hot path.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var tr *Tracer
	tk := tr.Track("t")
	c := tr.Counter("c")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tk.Begin("span")
		c.Sample(7)
		sp.EndInt("n", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %.1f per op, want 0", allocs)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		events []JSONEvent
		want   string
	}{
		{"negative dur", []JSONEvent{{Name: "x", Ph: "X", Ts: 1, Dur: -2}}, "negative dur"},
		{"unnamed", []JSONEvent{{Ph: "X"}}, "missing name"},
		{"unknown phase", []JSONEvent{{Name: "x", Ph: "Z"}}, "unknown phase"},
		{"dangling B", []JSONEvent{{Name: "x", Ph: "B", Tid: 1}}, "unclosed B"},
		{"orphan E", []JSONEvent{{Name: "x", Ph: "E", Tid: 1}}, "E without matching B"},
		{"counter without value", []JSONEvent{{Name: "c", Ph: "C"}}, "without args.value"},
		{"non-numeric counter", []JSONEvent{{Name: "c", Ph: "C", Args: map[string]any{"value": "no"}}}, "not numeric"},
		{"alien metadata", []JSONEvent{{Name: "weird", Ph: "M"}}, "unknown metadata"},
	}
	for _, tc := range cases {
		err := Validate(tc.events)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	if err := Validate([]JSONEvent{
		{Name: "b", Ph: "B", Tid: 1, Ts: 1},
		{Name: "b", Ph: "E", Tid: 1, Ts: 2},
	}); err != nil {
		t.Errorf("balanced B/E pair must validate, got %v", err)
	}
}

func TestParseRejectsNonArray(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"traceEvents":[]}`)); err == nil {
		t.Error("object-form trace must be rejected")
	}
	if _, err := Parse(strings.NewReader(`[{"name":"x","ph":"X"}`)); err == nil {
		t.Error("unterminated array must be rejected")
	}
}

func TestAppendMicros(t *testing.T) {
	cases := map[int64]string{
		0:          "0",
		999:        "0.999",
		1000:       "1",
		1234567:    "1234.567",
		-1500:      "-1.500",
		12_000_040: "12000.040",
	}
	for ns, want := range cases {
		if got := string(appendMicros(nil, ns)); got != want {
			t.Errorf("appendMicros(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestJSONStringEscaping(t *testing.T) {
	tr := New()
	tr.Track(`sh"ard\0` + "\n").Begin("s").End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateReader(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("hostile track name broke the JSON: %v\n%s", err, buf.String())
	}
}
