package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/resilience-models/dvf/internal/metrics"
)

// do issues one request against the server's handler and returns the
// recorded response.
func do(t *testing.T, s *Server, method, target string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decode parses a JSON response body.
func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding response %q: %v", w.Body.String(), err)
	}
	return v
}

func analyzeBody(kernel, cacheName, protection, engine string) AnalyzeRequest {
	return AnalyzeRequest{
		Kernel: kernel, Cache: CacheSpec{Name: cacheName},
		Protection: protection, Engine: engine,
	}
}

func TestAnalyzeMemoized(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/v1/analyze", analyzeBody("VM", "small", "none", "analytic"))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	first := decode[AnalyzeResponse](t, w)
	if first.Kernel != "VM" || first.Engine != "analytic" || first.TotalDVF <= 0 {
		t.Fatalf("unexpected response: %+v", first)
	}
	if first.Memoized {
		t.Fatal("first evaluation claims memoized")
	}
	if len(first.Structures) == 0 {
		t.Fatal("no per-structure rows")
	}

	w = do(t, s, "POST", "/v1/analyze", analyzeBody("VM", "small", "none", "analytic"))
	second := decode[AnalyzeResponse](t, w)
	if !second.Memoized {
		t.Fatal("repeat evaluation not memoized")
	}
	if second.TotalDVF != first.TotalDVF {
		t.Fatalf("memoized result diverged: %g != %g", second.TotalDVF, first.TotalDVF)
	}
}

func TestAnalyzeExplicitGeometryAndFIT(t *testing.T) {
	s := New(Config{})
	fit := 100.0
	w := do(t, s, "POST", "/v1/analyze", AnalyzeRequest{
		Kernel: "vm",
		Cache:  CacheSpec{Associativity: 2, Sets: 64, LineSize: 32},
		FIT:    &fit,
		Engine: "cgpmac",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[AnalyzeResponse](t, w)
	if resp.FIT != fit {
		t.Fatalf("FIT %g, want %g", resp.FIT, fit)
	}
	if !strings.HasPrefix(resp.Cache, "custom-") {
		t.Fatalf("cache label %q, want custom-*", resp.Cache)
	}
}

func TestAnalyzeRejects(t *testing.T) {
	s := New(Config{})
	fit := 50.0
	cases := []struct {
		name string
		body any
		want int
	}{
		{"bad kernel", analyzeBody("nope", "small", "none", ""), http.StatusBadRequest},
		{"bad cache name", analyzeBody("VM", "tiny", "none", ""), http.StatusBadRequest},
		{"bad engine", analyzeBody("VM", "small", "none", "quantum"), http.StatusBadRequest},
		{"analytic non-affine", analyzeBody("NB", "small", "none", "analytic"), http.StatusBadRequest},
		{"bad protection", analyzeBody("VM", "small", "tinfoil", ""), http.StatusBadRequest},
		{"no rate", analyzeBody("VM", "small", "", ""), http.StatusBadRequest},
		{"both rates", AnalyzeRequest{Kernel: "VM", Cache: CacheSpec{Name: "small"},
			FIT: &fit, Protection: "none"}, http.StatusBadRequest},
		{"name plus geometry", AnalyzeRequest{Kernel: "VM",
			Cache: CacheSpec{Name: "small", Sets: 8}, Protection: "none"}, http.StatusBadRequest},
		{"malformed json", `{"kernel":`, http.StatusBadRequest},
		{"unknown field", `{"kernel":"VM","bogus":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/analyze", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			body := decode[errorBody](t, w)
			if body.Error == "" {
				t.Fatal("error envelope missing")
			}
		})
	}
}

// TestAnalyzeRejectsHostileGeometry: a custom geometry past
// cache.MaxLines reaches the CG template estimator's simulator under the
// cgpmac engine. It must be refused with a 400 carrying the Validate
// message before any line storage is allocated (a billion sets would
// otherwise ask for tens of GiB).
func TestAnalyzeRejectsHostileGeometry(t *testing.T) {
	s := New(Config{})
	fit := 100.0
	body := AnalyzeRequest{
		Kernel: "CG",
		Cache:  CacheSpec{Associativity: 1, Sets: 1 << 30, LineSize: 64},
		FIT:    &fit,
		Engine: "cgpmac",
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := do(t, s, "POST", "/v1/analyze", body)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if msg := decode[errorBody](t, w).Error; !strings.Contains(msg, "line bound") {
		t.Fatalf("error %q does not carry the geometry bound", msg)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the geometry allocated %d bytes, want under 1 MiB", grew)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := New(Config{})
	if w := do(t, s, "GET", "/v1/analyze", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/analyze: status %d, want 405", w.Code)
	}
	if w := do(t, s, "POST", "/metrics", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", w.Code)
	}
}

func TestVerify(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/v1/verify", VerifyRequest{
		Kernel: "VM", Cache: CacheSpec{Name: "small"}, Engine: "analytic",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[VerifyResponse](t, w)
	if len(resp.Rows) == 0 {
		t.Fatal("no differential rows")
	}
	for _, row := range resp.Rows {
		if row.Structure == "" {
			t.Fatalf("row missing structure name: %+v", row)
		}
	}
	w = do(t, s, "POST", "/v1/verify", VerifyRequest{
		Kernel: "VM", Cache: CacheSpec{Name: "small"}, Engine: "analytic",
	})
	if resp := decode[VerifyResponse](t, w); !resp.Memoized {
		t.Fatal("repeat verify not memoized")
	}
}

func TestSelectProtection(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/v1/select-protection", SelectProtectionRequest{
		BaseHours: 1, SizeBytes: 1 << 20, NHa: 1e6, Target: 1e-3,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[SelectProtectionResponse](t, w)
	if resp.Mechanism == "" || resp.DVF > 1e-3 {
		t.Fatalf("unexpected selection: %+v", resp)
	}

	// An impossible target is a valid question with answer "nothing
	// suffices": 422, not 400 or 500.
	w = do(t, s, "POST", "/v1/select-protection", SelectProtectionRequest{
		BaseHours: 1, SizeBytes: 1 << 30, NHa: 1e9, Target: 1e-300,
	})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("impossible target: status %d, want 422: %s", w.Code, w.Body.String())
	}

	w = do(t, s, "POST", "/v1/select-protection", SelectProtectionRequest{
		BaseHours: 0, SizeBytes: 1, NHa: 1, Target: 1,
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("zero base_hours: status %d, want 400", w.Code)
	}
}

const aspenSource = `
model m {
    param n = 1000
    machine {
        cache { assoc 4  sets 64  line 32 }
        memory { fit 5000 }
    }
    data A { size 8*4*n  pattern streaming(8, 4*n, 4) }
    kernel main { flops 2*n }
}`

func TestAspenProgramCache(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/v1/aspen", AspenRequest{Source: aspenSource})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	first := decode[AspenResponse](t, w)
	if !first.Compiled {
		t.Fatal("first submission should compile")
	}
	if first.Hash != hashSource(aspenSource) {
		t.Fatalf("hash %q, want source hash", first.Hash)
	}

	w = do(t, s, "POST", "/v1/aspen", AspenRequest{Source: aspenSource})
	second := decode[AspenResponse](t, w)
	if second.Compiled {
		t.Fatal("re-submission should hit the program cache")
	}
	if second.TotalDVF != first.TotalDVF {
		t.Fatalf("cached program diverged: %g != %g", second.TotalDVF, first.TotalDVF)
	}

	w = do(t, s, "POST", "/v1/aspen", AspenRequest{Source: "model broken {"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("broken model: status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/v1/aspen", AspenRequest{Source: "   "}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty source: status %d, want 400", w.Code)
	}
}

func TestAspenOverrides(t *testing.T) {
	s := New(Config{})
	fit := 1000.0
	w := do(t, s, "POST", "/v1/aspen", AspenRequest{
		Source: aspenSource,
		Cache:  &CacheSpec{Name: "large"},
		FIT:    &fit,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[AspenResponse](t, w)
	if resp.FIT != fit {
		t.Fatalf("FIT %g, want %g", resp.FIT, fit)
	}
	if !strings.Contains(strings.ToLower(resp.Cache), "large") {
		t.Fatalf("cache %q, want the large profile", resp.Cache)
	}
}

// sweepRows decodes an NDJSON stream.
func sweepRows(t *testing.T, w *httptest.ResponseRecorder) []SweepRow {
	t.Helper()
	var rows []SweepRow
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var row SweepRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", line, err)
		}
		rows = append(rows, row)
	}
	return rows
}

func TestSweepStreamsGrid(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/v1/sweep", SweepRequest{
		Kernels:     []string{"VM", "CG"},
		Caches:      []CacheSpec{{Name: "small"}},
		Protections: []string{"none", "chipkill"},
		Engine:      "analytic",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	rows := sweepRows(t, w)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	seen := make(map[int]bool)
	for _, row := range rows {
		if row.Error != "" {
			t.Fatalf("cell %d failed: %s", row.Seq, row.Error)
		}
		if row.Result == nil || row.Result.TotalDVF <= 0 {
			t.Fatalf("cell %d has no result", row.Seq)
		}
		seen[row.Seq] = true
	}
	if len(seen) != 4 {
		t.Fatalf("duplicate seq numbers: %v", seen)
	}
}

func TestSweepDefaultsAndCellErrors(t *testing.T) {
	s := New(Config{})
	// Default analytic sweep: affine kernels x {small,large} x 3 rates.
	w := do(t, s, "POST", "/v1/sweep", SweepRequest{Engine: "analytic"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if rows := sweepRows(t, w); len(rows) != 24 {
		t.Fatalf("%d default rows, want 24 (4 kernels x 2 caches x 3 rates)", len(rows))
	}

	// A bad cell is a row-scoped error, not a request failure.
	w = do(t, s, "POST", "/v1/sweep", SweepRequest{
		Kernels:     []string{"VM", "NB"},
		Caches:      []CacheSpec{{Name: "small"}},
		Protections: []string{"none"},
		Engine:      "analytic",
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	rows := sweepRows(t, w)
	var ok, failed int
	for _, row := range rows {
		if row.Error != "" {
			failed++
		} else {
			ok++
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 1/1", ok, failed)
	}
}

func TestSweepGridCap(t *testing.T) {
	s := New(Config{MaxGridCells: 2})
	w := do(t, s, "POST", "/v1/sweep", SweepRequest{
		Kernels:     []string{"VM"},
		Caches:      []CacheSpec{{Name: "small"}},
		Protections: []string{"none", "secded", "chipkill"},
		Engine:      "analytic",
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("over-cap sweep: status %d, want 400", w.Code)
	}
}

func TestBatchPositionMatched(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "POST", "/v1/batch", BatchRequest{Requests: []AnalyzeRequest{
		analyzeBody("VM", "small", "none", "analytic"),
		analyzeBody("bogus", "small", "none", "analytic"),
		analyzeBody("CG", "small", "secded", "analytic"),
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decode[BatchResponse](t, w)
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Error != "" || resp.Results[0].Result == nil {
		t.Fatalf("result 0 should succeed: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Fatal("result 1 should carry the bad-kernel error")
	}
	if resp.Results[2].Result == nil || resp.Results[2].Result.Kernel != "CG" {
		t.Fatalf("result 2 mismatched: %+v", resp.Results[2])
	}

	if w := do(t, s, "POST", "/v1/batch", BatchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", w.Code)
	}
	s2 := New(Config{MaxGridCells: 1})
	w = do(t, s2, "POST", "/v1/batch", BatchRequest{Requests: []AnalyzeRequest{
		analyzeBody("VM", "small", "none", ""), analyzeBody("CG", "small", "none", ""),
	}})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("over-cap batch: status %d, want 400", w.Code)
	}
}

func TestMetricsFormats(t *testing.T) {
	s := New(Config{Sink: metrics.New()})
	// Generate some traffic so instruments are non-zero.
	do(t, s, "POST", "/v1/analyze", analyzeBody("VM", "small", "none", "analytic"))

	w := do(t, s, "GET", "/metrics", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "serve.analyze.requests") {
		t.Fatalf("text metrics: status %d body %q", w.Code, w.Body.String())
	}

	w = do(t, s, "GET", "/metrics?format=json", nil)
	var snap map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json metrics: %v", err)
	}

	w = do(t, s, "GET", "/metrics?format=prom", nil)
	body := w.Body.String()
	if !strings.Contains(body, "# TYPE dvf_serve_analyze_requests counter") {
		t.Fatalf("prom metrics missing counter TYPE line:\n%s", body)
	}
	if !strings.Contains(body, `dvf_serve_analyze_latency_ns{quantile="0.99"}`) {
		t.Fatalf("prom metrics missing quantile sample:\n%s", body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("prom Content-Type %q", ct)
	}

	if w := do(t, s, "GET", "/metrics?format=xml", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", w.Code)
	}
}

func TestMetricsNilSink(t *testing.T) {
	s := New(Config{})
	for _, format := range []string{"", "?format=json", "?format=prom"} {
		w := do(t, s, "GET", "/metrics"+format, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("nil-sink /metrics%s: status %d", format, w.Code)
		}
	}
}

func TestStatusz(t *testing.T) {
	s := New(Config{Sink: metrics.New(), PprofAddr: "127.0.0.1:0"})
	do(t, s, "POST", "/v1/analyze", analyzeBody("VM", "small", "none", "analytic"))
	do(t, s, "POST", "/v1/aspen", AspenRequest{Source: aspenSource})

	w := do(t, s, "GET", "/statusz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	info := decode[statuszInfo](t, w)
	if info.Service != "dvf-serve" || info.GoVersion == "" || info.Workers <= 0 {
		t.Fatalf("statusz basics wrong: %+v", info)
	}
	if info.PprofAddr != "127.0.0.1:0" {
		t.Fatalf("pprof addr %q", info.PprofAddr)
	}
	if info.Engines["analytic"] != 1 || info.Engines["aspen"] != 1 {
		t.Fatalf("engine mix wrong: %v", info.Engines)
	}
	if info.Memo.Len != 1 || info.Memo.Cap != DefaultMemoCap {
		t.Fatalf("memo occupancy wrong: %+v", info.Memo)
	}
	if info.Programs.Len != 1 {
		t.Fatalf("program occupancy wrong: %+v", info.Programs)
	}
	if info.Requests["analyze"] != 1 {
		t.Fatalf("request counters wrong: %v", info.Requests)
	}
}

func TestHealthz(t *testing.T) {
	s := New(Config{})
	w := do(t, s, "GET", "/healthz", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz: status %d body %q", w.Code, w.Body.String())
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{AccessLog: &safeBuffer{buf: &buf}})
	do(t, s, "GET", "/healthz", nil)
	do(t, s, "POST", "/v1/analyze", `{bad`)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d access-log lines, want 2: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var entry struct {
			TS     string `json:"ts"`
			Method string `json:"method"`
			Path   string `json:"path"`
			Status int    `json:"status"`
			DurUS  int64  `json:"dur_us"`
			Remote string `json:"remote"`
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("line %d is not JSON: %q: %v", i, line, err)
		}
		if entry.TS == "" || entry.Method == "" || entry.Path == "" {
			t.Fatalf("line %d missing fields: %q", i, line)
		}
	}
	var second struct {
		Status int `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil || second.Status != 400 {
		t.Fatalf("second line should record the 400: %q", lines[1])
	}
}

// safeBuffer serializes writes; the access logger already locks, but the
// test reader races otherwise under -race when reused elsewhere.
type safeBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestMemoCacheLRU(t *testing.T) {
	c := newMemoCache(2, nil)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b (least recent after a's refresh)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should be evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should survive (refreshed)")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
	c.put("a", 10) // update in place, no growth
	if v, _ := c.get("a"); v.(int) != 10 {
		t.Fatalf("a = %v, want 10", v)
	}
	if c.len() != 2 {
		t.Fatalf("len %d after update, want 2", c.len())
	}
}

func TestProgramCacheLRU(t *testing.T) {
	c := newProgramCache(1, nil)
	c.put("h1", nil)
	c.put("h2", nil)
	if _, ok := c.get("h1"); ok {
		t.Fatal("h1 should be evicted at cap 1")
	}
	if _, ok := c.get("h2"); !ok {
		t.Fatal("h2 missing")
	}
	if c.len() != 1 {
		t.Fatalf("len %d, want 1", c.len())
	}
}

func TestFlightGroupDedup(t *testing.T) {
	sink := metrics.New()
	g := newFlightGroup(sink)
	const riders = 4
	gate := make(chan struct{})
	leaderIn := make(chan struct{})
	var calls int64

	// The leader registers the flight, then blocks on gate.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, dup := g.do("k", func() (any, error) {
			close(leaderIn)
			<-gate
			atomic.AddInt64(&calls, 1)
			return "result", nil
		})
		if err != nil || dup || v != "result" {
			t.Errorf("leader: v=%v err=%v dup=%v", v, err, dup)
		}
	}()
	<-leaderIn

	// Every rider finds the registered flight and waits on it.
	for i := 0; i < riders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, dup := g.do("k", func() (any, error) {
				t.Errorf("rider %d ran the fn", i)
				return nil, nil
			})
			if err != nil || !dup || v != "result" {
				t.Errorf("rider %d: v=%v err=%v dup=%v", i, v, err, dup)
			}
		}(i)
	}
	// The dedup counter increments before a rider parks, so once it
	// reaches the rider count every rider is attached to the flight.
	for g.dedup.Value() < riders {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

func TestResolveCacheNames(t *testing.T) {
	for name := range tableIV {
		cfg, err := resolveCache(CacheSpec{Name: name})
		if err != nil {
			t.Fatalf("resolve %q: %v", name, err)
		}
		if cfg.Validate() != nil {
			t.Fatalf("bundled geometry %q invalid", name)
		}
	}
	if _, err := resolveCache(CacheSpec{Name: "SMALL"}); err != nil {
		t.Fatalf("names should be case-insensitive: %v", err)
	}
	if _, err := resolveCache(CacheSpec{Associativity: -1, Sets: 4, LineSize: 64}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

func TestSweepSingleflightUnderConcurrency(t *testing.T) {
	s := New(Config{Sink: metrics.New(), Workers: 2})
	body, _ := json.Marshal(SweepRequest{
		Kernels:     []string{"VM", "CG"},
		Caches:      []CacheSpec{{Name: "small"}},
		Protections: []string{"none"},
		Engine:      "analytic",
	})
	const clients = 4
	var wg sync.WaitGroup
	codes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader(body))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("client %d: status %d", i, code)
		}
	}
	// 4 clients x 2 cells but only 2 distinct keys: the engines ran at
	// most a handful of times, everything else memo/singleflight.
	snap := s.cfg.Sink.Snapshot()
	if evals := snap.Counters["serve.engine.analytic"]; evals > 4 {
		t.Fatalf("%d engine evaluations for 2 distinct cells", evals)
	}
	if hits := snap.Counters["serve.memo.hits"] + snap.Counters["serve.singleflight.dedup"]; hits == 0 {
		t.Fatal("no memo or singleflight sharing under concurrent identical sweeps")
	}
}

func TestRunGridWorkerCap(t *testing.T) {
	// Workers=1 must still complete a grid larger than the pool.
	s := New(Config{Workers: 1})
	grid := make([]AnalyzeRequest, 6)
	for i := range grid {
		grid[i] = analyzeBody([]string{"VM", "CG", "MG"}[i%3], "small",
			[]string{"none", "secded"}[i%2], "analytic")
	}
	n := 0
	for row := range s.runGrid(grid) {
		if row.Error != "" {
			t.Fatalf("cell %d: %s", row.Seq, row.Error)
		}
		n++
	}
	if n != len(grid) {
		t.Fatalf("%d rows, want %d", n, len(grid))
	}
}

func TestHashSourceStability(t *testing.T) {
	if hashSource("a") == hashSource("b") {
		t.Fatal("distinct sources collide")
	}
	if len(hashSource("x")) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(hashSource("x")))
	}
}

func TestResponseFuzzsafeLarge(t *testing.T) {
	// Oversized bodies are rejected without reading them fully.
	s := New(Config{})
	big := fmt.Sprintf(`{"kernel":"VM","cache":{"name":"small"},"protection":"%s"}`,
		strings.Repeat("x", maxBodyBytes))
	w := do(t, s, "POST", "/v1/analyze", big)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: status %d, want 400", w.Code)
	}
}
