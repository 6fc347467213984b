// Package serve is the DVF what-if service: an HTTP/JSON façade over the
// internal/core analyze / verify / select-protection API, built for
// campaign-sized design-space exploration — thousands of concurrent
// clients sweeping (kernel × cache geometry × FIT rate × protection
// scheme) grids, millions of DVF evaluations per minute.
//
// The serving plan is cache-first: compiled Aspen programs are cached by
// content hash, finished evaluations are memoized by their full request
// key, identical in-flight requests collapse into one computation
// (singleflight), grid sweeps stream NDJSON rows as a bounded worker pool
// produces them, and /v1/batch amortizes HTTP round-trips over many
// evaluations. Each built-in kernel runs at most once per Server: a
// fixed six-entry run table keeps its first untraced run, and every
// later analyze, sweep or batch miss evaluates only the models at the
// request's cache and applies Equation 1 at its FIT.
//
// The second headline is the observability plane threaded through every
// layer, following the repository's nil-sink discipline (DESIGN.md):
// per-endpoint request/error counters and log2 latency histograms, an
// in-flight gauge, cache hit/miss/occupancy instruments, request-scoped
// tracez spans (accept → parse → compile-or-hit → evaluate → encode),
// structured JSONL access logs, /metrics in text, JSON and Prometheus
// exposition formats, and a /statusz page. With a nil sink, nil tracer
// and no access log the whole plane costs the request hot path zero
// allocations — proven by AllocsPerRun guards in instr_test.go.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Config assembles a Server. The zero value is a valid, uninstrumented
// single-process service.
type Config struct {
	// Sink receives the service's metrics; nil leaves the service
	// uninstrumented at zero overhead (and /metrics reports the plane off).
	Sink metrics.Sink
	// Tracer records request-scoped spans; nil disables tracing at zero
	// overhead.
	Tracer tracez.Recorder
	// AccessLog receives one JSON object per completed request; nil
	// disables access logging. Writes are serialized by the server.
	AccessLog io.Writer
	// PprofAddr is the live pprof server's address (obs.PprofAddr),
	// surfaced on /statusz; "" when pprof is off.
	PprofAddr string
	// Workers bounds concurrent evaluations across sweeps and batches;
	// <= 0 selects GOMAXPROCS.
	Workers int
	// MemoCap bounds the evaluation memo (entries); <= 0 selects 4096.
	MemoCap int
	// ProgramCap bounds the compiled-program cache (entries); <= 0
	// selects 1024.
	ProgramCap int
	// MaxGridCells rejects sweeps expanding beyond this many evaluations;
	// <= 0 selects 65536.
	MaxGridCells int
}

// Server is the service state shared by every request: the caches, the
// evaluation semaphore and the pre-resolved instruments. Construct with
// New; it is safe for concurrent use.
type Server struct {
	cfg      Config
	start    time.Time
	mux      *http.ServeMux
	programs *programCache
	memo     *memoCache
	flights  *flightGroup
	runs     *runTable
	sem      chan struct{} // evaluation slots (worker pool)
	instr    instruments
	access   *accessLogger
}

// Defaults applied by New for the zero Config.
const (
	DefaultMemoCap      = 4096
	DefaultProgramCap   = 1024
	DefaultMaxGridCells = 65536
)

// New builds a Server and resolves every instrument once, so request
// paths touch only stored pointers (nil and free when cfg.Sink is nil).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MemoCap <= 0 {
		cfg.MemoCap = DefaultMemoCap
	}
	if cfg.ProgramCap <= 0 {
		cfg.ProgramCap = DefaultProgramCap
	}
	if cfg.MaxGridCells <= 0 {
		cfg.MaxGridCells = DefaultMaxGridCells
	}
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		mux:      http.NewServeMux(),
		programs: newProgramCache(cfg.ProgramCap, cfg.Sink),
		memo:     newMemoCache(cfg.MemoCap, cfg.Sink),
		flights:  newFlightGroup(cfg.Sink),
		runs:     newRunTable(cfg.Sink),
		sem:      make(chan struct{}, cfg.Workers),
		instr:    newInstruments(cfg.Sink),
		access:   newAccessLogger(cfg.AccessLog),
	}
	s.routes()
	return s
}

// routes wires every endpoint through the observability wrapper.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/analyze", s.wrap(epAnalyze, s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/verify", s.wrap(epVerify, s.handleVerify))
	s.mux.HandleFunc("POST /v1/select-protection", s.wrap(epSelect, s.handleSelectProtection))
	s.mux.HandleFunc("POST /v1/aspen", s.wrap(epAspen, s.handleAspen))
	s.mux.HandleFunc("POST /v1/sweep", s.wrap(epSweep, s.handleSweep))
	s.mux.HandleFunc("POST /v1/batch", s.wrap(epBatch, s.handleBatch))
	s.mux.HandleFunc("GET /metrics", s.wrap(epMetrics, s.handleMetrics))
	s.mux.HandleFunc("GET /statusz", s.wrap(epStatusz, s.handleStatusz))
	s.mux.HandleFunc("GET /healthz", s.wrap(epHealthz, s.handleHealthz))
}

// Handler returns the service's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// tableIV resolves the bundled cache geometries by their CLI spellings.
var tableIV = map[string]cache.Config{
	"small": cache.Small,
	"large": cache.Large,
	"16kb":  cache.Profile16KB,
	"128kb": cache.Profile128KB,
	"1mb":   cache.Profile1MB,
	"8mb":   cache.Profile8MB,
}

// resolveCache maps a CacheSpec to a simulator geometry: a bundled name,
// or an explicit associativity/sets/line-size triple (validated).
func resolveCache(spec CacheSpec) (cache.Config, error) {
	if spec.Name != "" {
		if spec.Associativity != 0 || spec.Sets != 0 || spec.LineSize != 0 {
			return cache.Config{}, fmt.Errorf("cache: give either a name or an explicit geometry, not both")
		}
		cfg, ok := tableIV[strings.ToLower(spec.Name)]
		if !ok {
			return cache.Config{}, fmt.Errorf("cache: unknown name %q (want small, large, 16kb, 128kb, 1mb, 8mb)", spec.Name)
		}
		return cfg, nil
	}
	cfg := cache.Config{
		Name:          fmt.Sprintf("custom-%dx%dx%d", spec.Associativity, spec.Sets, spec.LineSize),
		Associativity: spec.Associativity,
		Sets:          spec.Sets,
		LineSize:      spec.LineSize,
	}
	if err := cfg.Validate(); err != nil {
		return cache.Config{}, err
	}
	return cfg, nil
}
