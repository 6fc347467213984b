package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/resilience-models/dvf/internal/tracez"
)

// handleMetrics serves the live snapshot in three formats:
//
//	GET /metrics              aligned text (Snapshot.WriteText)
//	GET /metrics?format=json  the schema-versioned JSON snapshot
//	GET /metrics?format=prom  Prometheus text exposition (Snapshot.WriteProm)
//
// A nil sink yields a valid empty snapshot in every format, so scrapers
// keep working against an uninstrumented server.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	s.cfg.Sink.SampleMem()
	snap := s.cfg.Sink.Snapshot()
	sp := tk.Begin("encode")
	defer sp.End()
	switch format := r.URL.Query().Get("format"); format {
	case "", "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = snap.WriteText(w)
	case "json":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = snap.WriteJSON(w)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = snap.WriteProm(w)
	default:
		http.Error(w, "unknown format "+format+" (want text, json or prom)", http.StatusBadRequest)
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// statuszInfo is the /statusz body: what is this process, how long has
// it been up, how loaded is it, and how full are its caches.
type statuszInfo struct {
	Service    string `json:"service"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision,omitempty"` // VCS revision when built from a checkout
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	UptimeSec  int64  `json:"uptime_sec"`
	Workers    int    `json:"workers"`
	PprofAddr  string `json:"pprof_addr,omitempty"`

	Inflight   int64 `json:"inflight"`
	QueueDepth int64 `json:"queue_depth"`

	Memo       occupancyInfo    `json:"memo"`
	Programs   occupancyInfo    `json:"programs"`
	Engines    map[string]int64 `json:"engines"`     // evaluation counts by engine
	KernelRuns map[string]int64 `json:"kernel_runs"` // untraced kernel runs by kernel code
	Requests   map[string]int64 `json:"requests"`
}

// occupancyInfo describes one cache's fill and hit behavior.
type occupancyInfo struct {
	Len    int   `json:"len"`
	Cap    int   `json:"cap"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// buildRevision extracts the VCS revision stamped into the binary;
// "" for test binaries and builds outside a checkout.
func buildRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
		case "vcs.modified":
			if kv.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// handleStatusz reports build info, load, cache occupancy and the
// engine mix as JSON.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request, tk *tracez.Track) int {
	info := statuszInfo{
		Service:    "dvf-serve",
		GoVersion:  runtime.Version(),
		Revision:   buildRevision(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		UptimeSec:  int64(time.Since(s.start) / time.Second),
		Workers:    s.cfg.Workers,
		PprofAddr:  s.cfg.PprofAddr,
		Inflight:   s.instr.inflight.Value(),
		QueueDepth: s.instr.queueDepth.Value(),
		Memo: occupancyInfo{
			Len: s.memo.len(), Cap: s.cfg.MemoCap,
			Hits: s.memo.hits.Value(), Misses: s.memo.misses.Value(),
		},
		Programs: occupancyInfo{
			Len: s.programs.len(), Cap: s.cfg.ProgramCap,
			Hits: s.programs.hits.Value(), Misses: s.programs.misses.Value(),
		},
		Engines:    make(map[string]int64, len(engineNames)),
		KernelRuns: s.runs.counts(),
		Requests:   make(map[string]int64, int(epCount)),
	}
	for _, name := range engineNames {
		info.Engines[name] = s.instr.engines[name].Value()
	}
	for e := endpoint(0); e < epCount; e++ {
		info.Requests[e.name()] = s.instr.byEndpoint[e].requests.Value()
	}
	sp := tk.Begin("encode")
	writeJSON(w, http.StatusOK, &info)
	sp.End()
	return http.StatusOK
}
