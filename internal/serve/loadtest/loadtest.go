// Package loadtest is the dvf-serve load harness: a concurrent client
// fleet that drives campaign-shaped sweep requests at a running service
// and reports throughput (evaluations/sec) plus a request-latency
// histogram digest. `dvf-serve -smoke` uses it as the end-to-end smoke
// client, so the number CI gates on is produced by the same code path a
// capacity test would use.
package loadtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/resilience-models/dvf/internal/metrics"
)

// Options shapes one load-test run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Clients is the concurrent client count; <= 0 selects 4.
	Clients int
	// Requests is the total number of sweep requests issued across all
	// clients; <= 0 selects 64.
	Requests int
	// Kernels, Caches and Protections define the per-request sweep grid;
	// empty lists fall back to the affine kernels (VM, CG, MG, FT), both
	// verification caches, and the three Table VII protection rows.
	Kernels     []string
	Caches      []string
	Protections []string
	// Engine selects the evaluation engine; "" selects analytic — the
	// trace-free engine is what makes campaign throughput possible.
	Engine string
	// Sink records the client-side latency histograms
	// (loadtest.request_ns) and counters; nil disables.
	Sink metrics.Sink
}

// Result is one load-test outcome.
type Result struct {
	Requests    int                       `json:"requests"`
	Rows        int64                     `json:"rows"`   // NDJSON rows received
	Evals       int64                     `json:"evals"`  // successful evaluations
	Errors      int64                     `json:"errors"` // row-level + request-level failures
	Wall        time.Duration             `json:"wall_ns"`
	EvalsPerSec float64                   `json:"evals_per_sec"`
	Latency     metrics.HistogramSnapshot `json:"latency"` // per-request wall latency, ns
}

// EvalsPerMin returns the sustained evaluation throughput per minute,
// the unit the serve acceptance bar is written in.
func (r *Result) EvalsPerMin() float64 { return r.EvalsPerSec * 60 }

// sweepBody is the marshalled /v1/sweep request every client posts.
type sweepBody struct {
	Kernels     []string    `json:"kernels,omitempty"`
	Caches      []cacheName `json:"caches,omitempty"`
	Protections []string    `json:"protections,omitempty"`
	Engine      string      `json:"engine,omitempty"`
}

type cacheName struct {
	Name string `json:"name"`
}

// sweepRow mirrors serve.SweepRow for counting; only the fields the
// harness needs are decoded.
type sweepRow struct {
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// Run issues o.Requests sweep requests from o.Clients concurrent
// clients and aggregates throughput and latency. A transport-level
// failure aborts the run; row-level errors only count.
func Run(o Options) (*Result, error) {
	clients := o.Clients
	if clients <= 0 {
		clients = 4
	}
	total := o.Requests
	if total <= 0 {
		total = 64
	}
	if clients > total {
		clients = total
	}
	engine := o.Engine
	if engine == "" {
		engine = "analytic"
	}
	kernels := o.Kernels
	if len(kernels) == 0 {
		kernels = []string{"VM", "CG", "MG", "FT"}
	}
	caches := o.Caches
	if len(caches) == 0 {
		caches = []string{"small", "large"}
	}
	protections := o.Protections
	if len(protections) == 0 {
		protections = []string{"none", "secded", "chipkill"}
	}
	var specs []cacheName
	for _, c := range caches {
		specs = append(specs, cacheName{Name: c})
	}
	body, err := json.Marshal(sweepBody{
		Kernels: kernels, Caches: specs, Protections: protections, Engine: engine,
	})
	if err != nil {
		return nil, err
	}

	latency := o.Sink.Histogram("loadtest.request_ns")
	reqCount := o.Sink.Counter("loadtest.requests")
	evalCount := o.Sink.Counter("loadtest.evals")

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		rows     int64
		evals    int64
		rowErrs  int64
	)
	// The local latency histogram always exists so the Result carries a
	// digest even with a nil sink.
	local := metrics.New()
	localLatency := local.Histogram("loadtest.request_ns")
	jobs := make(chan int)
	url := o.BaseURL + "/v1/sweep"
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for range jobs {
				rt0 := time.Now()
				nRows, nEvals, nErrs, err := postSweep(client, url, body)
				dur := time.Since(rt0).Nanoseconds()
				latency.Observe(dur)
				localLatency.Observe(dur)
				reqCount.Inc()
				evalCount.Add(nEvals)
				mu.Lock()
				rows += nRows
				evals += nEvals
				rowErrs += nErrs
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{
		Requests: total,
		Rows:     rows,
		Evals:    evals,
		Errors:   rowErrs,
		Wall:     wall,
		Latency:  local.Snapshot().Histograms["loadtest.request_ns"],
	}
	if wall > 0 {
		res.EvalsPerSec = float64(evals) / wall.Seconds()
	}
	return res, nil
}

// postSweep issues one sweep request and counts the NDJSON rows.
func postSweep(client *http.Client, url string, body []byte) (rows, evals, errs int64, err error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 1, err
	}
	defer func() {
		if cerr := resp.Body.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 1, fmt.Errorf("loadtest: %s: status %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rows++
		var row sweepRow
		if jerr := json.Unmarshal(line, &row); jerr != nil || row.Error != "" {
			errs++
			continue
		}
		evals++
	}
	if serr := sc.Err(); serr != nil {
		return rows, evals, errs + 1, serr
	}
	return rows, evals, errs, nil
}
