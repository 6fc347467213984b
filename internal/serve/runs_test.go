package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"github.com/resilience-models/dvf/internal/core"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/metrics"
)

// bundledCaches is the six cache names every shape is asked on, in a
// fixed order.
var bundledCaches = []string{"small", "large", "16kb", "128kb", "1mb", "8mb"}

// analyzeShapes lists every valid analyze question shape: each built-in
// kernel on each bundled cache under cgpmac, and the affine kernels under
// analytic too (60 shapes).
func analyzeShapes() []AnalyzeRequest {
	var out []AnalyzeRequest
	for _, k := range core.Kernels() {
		for _, c := range bundledCaches {
			out = append(out, AnalyzeRequest{Kernel: k.Name(), Cache: CacheSpec{Name: c}, Engine: engineCGPMAC})
			if core.Affine(k) {
				out = append(out, AnalyzeRequest{Kernel: k.Name(), Cache: CacheSpec{Name: c}, Engine: engineAnalytic})
			}
		}
	}
	return out
}

// atFIT returns the shape with the failure rate set.
func atFIT(req AnalyzeRequest, fit float64) AnalyzeRequest {
	req.FIT = &fit
	return req
}

// answerKey identifies one answer by kernel, cache geometry name (as the
// answer spells it), engine and rate.
func answerKey(kernel, cacheName, engine string, fit float64) string {
	return fmt.Sprintf("%s|%s|%s|%g", kernel, cacheName, engine, fit)
}

// shapeKey is answerKey for a request at fit.
func shapeKey(req AnalyzeRequest, fit float64) string {
	return answerKey(req.Kernel, tableIV[req.Cache.Name].Name, req.Engine, fit)
}

// coreAnswer is the compact JSON of the answer a fresh, unshared
// core.AnalyzeKernel (or AnalyzeKernelAnalytic) call gives for req at
// fit — the kernel runs again for every call.
func coreAnswer(t *testing.T, req AnalyzeRequest, fit float64) []byte {
	t.Helper()
	k, err := core.NewKernel(req.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tableIV[req.Cache.Name]
	var rep *core.Report
	if req.Engine == engineAnalytic {
		rep, err = core.AnalyzeKernelAnalytic(k, cfg, dvf.FIT(fit))
	} else {
		rep, err = core.AnalyzeKernel(k, cfg, dvf.FIT(fit))
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(analyzeResponse(rep, cfg, req.Engine))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// compact strips the insignificant whitespace of a served JSON value.
func compact(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return b.Bytes()
}

// rawRow is a SweepRow whose result keeps the bytes the server wrote.
type rawRow struct {
	Seq    int             `json:"seq"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// TestSharedRunAnswersMatchCore is the differential for the run table:
// every analyze shape at three rates, asked through /v1/analyze,
// /v1/sweep and /v1/batch of fresh servers (so every answer is a miss),
// must be byte-equal to what a fresh core.AnalyzeKernel[Analytic] call
// with its own kernel run answers.
func TestSharedRunAnswersMatchCore(t *testing.T) {
	fits := []float64{1, 37.25, 5000.0 / 3}
	shapes := analyzeShapes()
	if len(shapes) != 60 {
		t.Fatalf("%d analyze shapes, want 60", len(shapes))
	}
	want := make(map[string][]byte, len(shapes)*len(fits))
	var all []AnalyzeRequest
	for _, req := range shapes {
		for _, fit := range fits {
			want[shapeKey(req, fit)] = coreAnswer(t, req, fit)
			all = append(all, atFIT(req, fit))
		}
	}
	s := New(Config{})
	for _, req := range all {
		w := do(t, s, "POST", "/v1/analyze", req)
		if w.Code != http.StatusOK {
			t.Fatalf("analyze %+v: status %d: %s", req, w.Code, w.Body.String())
		}
		key := shapeKey(req, *req.FIT)
		if got, exp := compact(t, w.Body.Bytes()), want[key]; !bytes.Equal(got, exp) {
			t.Errorf("analyze %s:\n got %s\nwant %s", key, got, exp)
		}
	}

	s = New(Config{})
	seen := make(map[string]bool, len(all))
	for _, engine := range []string{engineCGPMAC, engineAnalytic} {
		var caches []CacheSpec
		for _, c := range bundledCaches {
			caches = append(caches, CacheSpec{Name: c})
		}
		w := do(t, s, "POST", "/v1/sweep", SweepRequest{Caches: caches, FITs: fits, Engine: engine})
		if w.Code != http.StatusOK {
			t.Fatalf("sweep %s: status %d: %s", engine, w.Code, w.Body.String())
		}
		sc := bufio.NewScanner(w.Body)
		for sc.Scan() {
			var row rawRow
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				t.Fatal(err)
			}
			if row.Error != "" {
				t.Fatalf("sweep %s row %d: %s", engine, row.Seq, row.Error)
			}
			// Rows arrive in completion order: find the question by the answer.
			got := compact(t, row.Result)
			var resp AnalyzeResponse
			if err := json.Unmarshal(got, &resp); err != nil {
				t.Fatal(err)
			}
			key := answerKey(resp.Kernel, resp.Cache, resp.Engine, resp.FIT)
			if exp, ok := want[key]; !ok || !bytes.Equal(got, exp) {
				t.Errorf("sweep %s (asked: %v):\n got %s\nwant %s", key, ok, got, exp)
			}
			seen[key] = true
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("sweeps answered %d distinct questions, want %d", len(seen), len(all))
	}

	s = New(Config{})
	w := do(t, s, "POST", "/v1/batch", BatchRequest{Requests: all})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body.String())
	}
	var batch struct {
		Results []rawRow `json:"results"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(all) {
		t.Fatalf("batch returned %d results, want %d", len(batch.Results), len(all))
	}
	for i, row := range batch.Results {
		if row.Error != "" {
			t.Fatalf("batch result %d: %s", i, row.Error)
		}
		key := shapeKey(all[i], *all[i].FIT)
		if got, exp := compact(t, row.Result), want[key]; !bytes.Equal(got, exp) {
			t.Errorf("batch result %d (%s):\n got %s\nwant %s", i, key, got, exp)
		}
	}
}

// statusz fetches and decodes the server's /statusz page.
func statusz(t *testing.T, s *Server) statuszInfo {
	t.Helper()
	w := do(t, s, "GET", "/statusz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("statusz: status %d", w.Code)
	}
	return decode[statuszInfo](t, w)
}

// TestKernelRunsOncePerServer: many distinct-FIT misses on two kernels
// and both engines run each of them once, as /statusz and the
// serve.kernel_runs counter both show; kernels never asked never run.
func TestKernelRunsOncePerServer(t *testing.T) {
	sink := metrics.New()
	s := New(Config{Sink: sink})
	misses := 0
	for i := 0; i < 8; i++ {
		fit := 10 + float64(i)
		for _, kernel := range []string{"VM", "CG"} {
			for _, engine := range []string{engineCGPMAC, engineAnalytic} {
				w := do(t, s, "POST", "/v1/analyze", atFIT(AnalyzeRequest{
					Kernel: kernel, Cache: CacheSpec{Name: "small"}, Engine: engine}, fit))
				if w.Code != http.StatusOK {
					t.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
				if decode[AnalyzeResponse](t, w).Memoized {
					t.Fatal("distinct-FIT request answered from the memo")
				}
				misses++
			}
		}
	}
	info := statusz(t, s)
	for _, k := range core.Kernels() {
		want := int64(0)
		if k.Name() == "VM" || k.Name() == "CG" {
			want = 1
		}
		if got, ok := info.KernelRuns[k.Name()]; !ok || got != want {
			t.Errorf("statusz kernel_runs[%s] = %d (present %v), want %d after %d misses",
				k.Name(), got, ok, want, misses)
		}
	}
	if got := sink.Counter("serve.kernel_runs").Value(); got != 2 {
		t.Errorf("serve.kernel_runs = %d, want 2", got)
	}
	if got := info.Engines[engineCGPMAC] + info.Engines[engineAnalytic]; got != int64(misses) {
		t.Errorf("evaluations = %d, want %d", got, misses)
	}
}

// TestConcurrentDistinctFITs races 2×GOMAXPROCS clients, each posting
// all 60 shapes at its own FIT from its own starting shape, so first
// requests for every kernel arrive together. Every answer must equal an
// evaluation over a run of the test's own, and each kernel must run
// exactly once. Under -race (make race) this also checks that the shared
// run is only read.
func TestConcurrentDistinctFITs(t *testing.T) {
	shapes := analyzeShapes()
	runs := make(map[string]*core.RunInfo)
	for _, k := range core.Kernels() {
		info, err := k.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		runs[k.Name()] = info
	}
	s := New(Config{})
	clients := 2 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fit := 100 + float64(c)
			for i := range shapes {
				req := atFIT(shapes[(i+c*len(shapes)/clients)%len(shapes)], fit)
				w := do(t, s, "POST", "/v1/analyze", req)
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("%+v: status %d: %s", req, w.Code, w.Body.String())
					return
				}
				k, err := core.NewKernel(req.Kernel)
				if err != nil {
					errs <- err
					return
				}
				cfg := tableIV[req.Cache.Name]
				rep, err := core.AnalyzeRun(k, runs[req.Kernel], cfg, dvf.FIT(fit), req.Engine == engineAnalytic)
				if err != nil {
					errs <- err
					return
				}
				var want bytes.Buffer
				enc := json.NewEncoder(&want)
				enc.SetIndent("", "  ")
				if err := enc.Encode(analyzeResponse(rep, cfg, req.Engine)); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
					errs <- fmt.Errorf("%+v:\n got %s\nwant %s", req, w.Body.Bytes(), want.Bytes())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for code, n := range statusz(t, s).KernelRuns {
		if n != 1 {
			t.Errorf("kernel %s ran %d times, want 1", code, n)
		}
	}
}

// BenchmarkServeAnalyzeMiss times one /v1/analyze miss through the
// in-process handler: every request asks at a new FIT, so the memo never
// answers. An untimed first miss runs the kernel, so the timed ones
// measure what every later miss costs.
func BenchmarkServeAnalyzeMiss(b *testing.B) {
	for _, engine := range []string{engineCGPMAC, engineAnalytic} {
		b.Run("CG/"+engine, func(b *testing.B) {
			s := New(Config{})
			miss := func(fit float64) {
				raw, err := json.Marshal(atFIT(AnalyzeRequest{
					Kernel: "CG", Cache: CacheSpec{Name: "large"}, Engine: engine}, fit))
				if err != nil {
					b.Fatal(err)
				}
				w := httptest.NewRecorder()
				s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(raw)))
				if w.Code != http.StatusOK {
					b.Fatalf("status %d: %s", w.Code, w.Body.String())
				}
			}
			miss(0.5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss(1 + float64(i))
			}
		})
	}
}
