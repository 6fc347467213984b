package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/resilience-models/dvf/internal/aspen"
	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/core"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/tracez"
)

// maxBodyBytes bounds request bodies; an Aspen model or a sweep grid
// spec comfortably fits, a runaway client does not.
const maxBodyBytes = 1 << 20

// decodeJSON parses the request body into v with the standard guards:
// size cap, unknown-field rejection, single JSON value.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// writeJSON commits status and an indented JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status line is already committed; an encode failure at this
	// point can only surface as a truncated body.
	_ = enc.Encode(v)
}

// writeError commits an error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// acquire takes one evaluation slot from the worker pool, surfacing time
// spent waiting as the queue-depth gauge.
func (s *Server) acquire() {
	s.instr.queueDepth.Add(1)
	s.sem <- struct{}{}
	s.instr.queueDepth.Add(-1)
}

// release returns an evaluation slot.
func (s *Server) release() { <-s.sem }

// handleHealthz is the liveness probe.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request, _ *tracez.Track) int {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
	return http.StatusOK
}

// handleAnalyze evaluates one grid cell.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	sp := tk.Begin("parse")
	var req AnalyzeRequest
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	resp, status, err := s.evalAnalyze(req, tk)
	if err != nil {
		writeError(w, status, err)
		return status
	}
	sp = tk.Begin("encode")
	writeJSON(w, http.StatusOK, resp)
	sp.End()
	return http.StatusOK
}

// analyzeKeyBuf sizes the stack buffer evalAnalyze reserves for its memo
// key: "analyze|" plus kernel code, cache name, %g-rendered rate and
// engine label fits with room to spare for every bundled configuration.
// An oversized custom name merely grows the slice onto the heap — the
// key is still correct, the request just pays its allocations.
const analyzeKeyBuf = 128

// appendAnalyzeKey assembles the analyze memo key ("analyze|KERNEL|
// cache|rate|engine") into dst, the byte-append twin of the original
// fmt.Sprintf. The caller hands in a stack-reserved buffer, so on the
// memo hit path nothing here touches the heap; hotalloc verifies that
// claim statically (the appends below are audited: they grow only past
// analyzeKeyBuf).
//
//dvf:hotpath
func appendAnalyzeKey(dst []byte, kernel, cacheName string, rate float64, engine string) []byte {
	dst = append(append(dst, "analyze|"...), kernel...) //dvf:allow hotalloc caller reserves analyzeKeyBuf bytes of stack capacity; bundled keys never grow it

	dst = append(append(dst, '|'), cacheName...) //dvf:allow hotalloc same stack-capacity reservation

	dst = strconv.AppendFloat(append(dst, '|'), rate, 'g', -1, 64) //dvf:allow hotalloc same stack-capacity reservation; AppendFloat writes in place

	dst = append(append(dst, '|'), engine...) //dvf:allow hotalloc same stack-capacity reservation
	return dst
}

// evalAnalyze is the analyze pipeline shared by /v1/analyze, /v1/sweep
// and /v1/batch: validate, memo-or-hit, singleflight evaluate, memoize.
// A miss evaluates against the kernel's shared untraced run (runTable),
// so only a kernel's first miss runs the kernel. The returned status is
// meaningful only alongside a non-nil error.
//
// The memo probe runs before the kernel is constructed: the key is
// assembled from the request's canonical field forms into a
// stack-reserved buffer and looked up by bytes, so a repeated what-if
// question is answered without a single heap allocation (instr_test.go
// holds the hit path to zero; hotalloc proves the key builder and the
// lookup allocation-free statically). Probe-first cannot mask a
// validation error: an invalid kernel is never memoized, so its probe
// misses and the miss path still validates everything.
func (s *Server) evalAnalyze(req AnalyzeRequest, tk *tracez.Track) (*AnalyzeResponse, int, error) {
	engine := req.Engine
	if engine == "" {
		engine = engineCGPMAC
	}
	if engine != engineCGPMAC && engine != engineAnalytic {
		return nil, http.StatusBadRequest, fmt.Errorf("unknown engine %q (want cgpmac or analytic)", engine)
	}
	cfg, err := resolveCache(req.Cache)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	rate, err := resolveFIT(req.FIT, req.Protection)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}

	// kcode matches Kernel.Name() for every valid request (NewKernel
	// resolves the upper-cased code), so the probe key and the memoize key
	// are the same bytes.
	kcode := strings.ToUpper(req.Kernel)
	var kb [analyzeKeyBuf]byte
	keyBytes := appendAnalyzeKey(kb[:0], kcode, cfg.Name, float64(rate), engine)
	sp := tk.Begin("memo")
	v, hit := s.memo.getBytes(keyBytes)
	sp.End()
	if hit {
		// Memoized responses are stored with Memoized already set and
		// shared read-only: the hit performs no copy and no mutation.
		return v.(*AnalyzeResponse), 0, nil
	}

	k, err := core.NewKernel(kcode)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if engine == engineAnalytic && !core.Affine(k) {
		return nil, http.StatusBadRequest,
			fmt.Errorf("kernel %s has no affine access pattern; engine=analytic needs one (use cgpmac)", k.Name())
	}

	key := string(keyBytes)
	sp = tk.Begin("evaluate")
	v, err, shared := s.flights.do(key, func() (any, error) {
		s.acquire()
		defer s.release()
		info, err := s.runs.get(k)
		if err != nil {
			return nil, err
		}
		rep, err := core.AnalyzeRun(k, info, cfg, rate, engine == engineAnalytic)
		if err != nil {
			return nil, err
		}
		resp := analyzeResponse(rep, cfg, engine)
		// The memo keeps its own copy with Memoized pre-set so later hits
		// return the stored pointer untouched.
		memo := *resp
		memo.Memoized = true
		s.memo.put(key, &memo)
		s.instr.countEngine(engine)
		return resp, nil
	})
	sp.End()
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	resp := v.(*AnalyzeResponse)
	if shared {
		// A rider on another caller's flight answered without computing;
		// copy before flipping Memoized — the first caller holds resp too.
		rider := *resp
		rider.Memoized = true
		return &rider, 0, nil
	}
	return resp, 0, nil
}

// analyzeResponse converts a core report into the wire shape.
func analyzeResponse(rep *core.Report, cfg cache.Config, engine string) *AnalyzeResponse {
	resp := &AnalyzeResponse{
		Kernel:     rep.Kernel,
		Cache:      cfg.Name,
		Engine:     engine,
		FIT:        float64(rep.Rate),
		ExecHours:  rep.ExecHours,
		TotalDVF:   rep.Total(),
		Structures: make([]StructureDVF, 0, len(rep.Structures)),
	}
	for _, st := range rep.Structures {
		resp.Structures = append(resp.Structures, StructureDVF{
			Name: st.Name, Bytes: st.Bytes, NHa: st.NHa, NError: st.NError, DVF: st.DVF,
		})
	}
	return resp
}

// handleVerify runs one kernel's model-vs-engine differential.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	sp := tk.Begin("parse")
	var req VerifyRequest
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	engine := req.Engine
	if engine == "" {
		engine = engineReplay
	}
	if engine != engineReplay && engine != engineAnalytic {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown engine %q (want replay or analytic)", engine))
		return http.StatusBadRequest
	}
	cfg, err := resolveCache(req.Cache)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	k, err := core.NewKernel(strings.ToUpper(req.Kernel))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	if engine == engineAnalytic && !core.Affine(k) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("kernel %s has no affine access pattern; engine=analytic needs one", k.Name()))
		return http.StatusBadRequest
	}

	key := fmt.Sprintf("verify|%s|%s|%s", k.Name(), cfg.Name, engine)
	sp = tk.Begin("memo")
	v, ok := s.memo.get(key)
	sp.End()
	shared := false
	if !ok {
		sp = tk.Begin("evaluate")
		v, err, shared = s.flights.do(key, func() (any, error) {
			s.acquire()
			defer s.release()
			resp, err := verifyResponse(k, cfg, engine)
			if err != nil {
				return nil, err
			}
			s.memo.put(key, resp)
			s.instr.countEngine(engine)
			return resp, nil
		})
		sp.End()
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return http.StatusInternalServerError
		}
	}
	resp := *v.(*VerifyResponse)
	resp.Memoized = ok || shared
	sp = tk.Begin("encode")
	writeJSON(w, http.StatusOK, &resp)
	sp.End()
	return http.StatusOK
}

// verifyResponse runs the requested differential and shapes the rows.
func verifyResponse(k core.Kernel, cfg cache.Config, engine string) (*VerifyResponse, error) {
	resp := &VerifyResponse{Kernel: k.Name(), Cache: cfg.Name, Engine: engine}
	if engine == engineAnalytic {
		rows, err := core.VerifyKernelAnalytic(k, cfg)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			resp.Rows = append(resp.Rows, VerifyRow{
				Structure: row.Structure, Model: row.Analytic, Simulated: row.Simulated,
				ErrorPct: row.ErrorPct(), TolerancePct: row.Tolerance * 100,
			})
		}
		return resp, nil
	}
	rows, err := core.VerifyKernel(k, cfg)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		resp.Rows = append(resp.Rows, VerifyRow{
			Structure: row.Structure, Model: row.Model, Simulated: row.Simulated,
			ErrorPct: row.ErrorPct(),
		})
	}
	return resp, nil
}

// handleSelectProtection answers the §III-A mechanism-selection question.
func (s *Server) handleSelectProtection(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	sp := tk.Begin("parse")
	var req SelectProtectionRequest
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	switch {
	case req.BaseHours <= 0:
		err = fmt.Errorf("base_hours must be positive")
	case req.SizeBytes <= 0:
		err = fmt.Errorf("size_bytes must be positive")
	case req.NHa < 0:
		err = fmt.Errorf("n_ha must be non-negative")
	case req.Target <= 0:
		err = fmt.Errorf("target must be positive")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	sp = tk.Begin("evaluate")
	mech, point, err := core.SelectProtection(req.BaseHours, req.SizeBytes, req.NHa, req.Target)
	sp.End()
	if err != nil {
		// No Table VII mechanism reaches the target: the request was valid,
		// the answer is "nothing suffices".
		writeError(w, http.StatusUnprocessableEntity, err)
		return http.StatusUnprocessableEntity
	}
	sp = tk.Begin("encode")
	writeJSON(w, http.StatusOK, &SelectProtectionResponse{
		Mechanism:      mech.Name,
		DegradationPct: point.DegradationPct,
		EffectiveFIT:   float64(point.EffectiveFIT),
		ExecHours:      point.ExecHours,
		DVF:            point.DVF,
	})
	sp.End()
	return http.StatusOK
}

// handleAspen evaluates an extended-Aspen model, caching the compiled
// program by content hash.
func (s *Server) handleAspen(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	sp := tk.Begin("parse")
	var req AspenRequest
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	if strings.TrimSpace(req.Source) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("source is required"))
		return http.StatusBadRequest
	}
	var opts []aspen.Option
	cacheLabel := "model default"
	if req.Cache != nil {
		cfg, err := resolveCache(*req.Cache)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return http.StatusBadRequest
		}
		opts = append(opts, aspen.WithCache(cfg))
		cacheLabel = cfg.Name
	}
	if req.FIT != nil {
		if *req.FIT < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("fit must be non-negative"))
			return http.StatusBadRequest
		}
		opts = append(opts, aspen.WithFIT(dvf.FIT(*req.FIT)))
	}

	// Compile-or-hit: the program cache is keyed by the source's SHA-256,
	// so re-submitted models skip parse+check entirely. Compilation rides
	// singleflight too — a campaign hammering one new model compiles once.
	hash := hashSource(req.Source)
	sp = tk.Begin("compile")
	model, compiled := s.programs.get(hash)
	if !compiled {
		v, cerr, _ := s.flights.do("compile|"+hash, func() (any, error) {
			m, err := aspen.Parse(req.Source)
			if err != nil {
				return nil, err
			}
			if err := aspen.Check(m); err != nil {
				return nil, err
			}
			s.programs.put(hash, m)
			return m, nil
		})
		if cerr != nil {
			sp.End()
			writeError(w, http.StatusBadRequest, cerr)
			return http.StatusBadRequest
		}
		model = v.(*aspen.Model)
	}
	sp.End()

	sp = tk.Begin("evaluate")
	s.acquire()
	ev, err := aspen.Evaluate(model, opts...)
	s.release()
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	s.instr.countEngine(engineAspen)

	resp := &AspenResponse{
		Model:       ev.Model,
		Hash:        hash,
		Compiled:    !compiled,
		Cache:       cacheLabel,
		FIT:         float64(ev.Rate),
		ExecSeconds: ev.ExecSeconds,
		TotalDVF:    ev.Total(),
	}
	if req.Cache == nil {
		resp.Cache = ev.Cache.Name
	}
	for _, st := range ev.Structures {
		resp.Structures = append(resp.Structures, StructureDVF{
			Name: st.Name, Bytes: st.Bytes, NHa: st.NHa, NError: st.NError, DVF: st.DVF,
		})
	}
	sp = tk.Begin("encode")
	writeJSON(w, http.StatusOK, resp)
	sp.End()
	return http.StatusOK
}

// expandSweep turns a sweep spec into the concrete request grid.
func (s *Server) expandSweep(req SweepRequest) ([]AnalyzeRequest, error) {
	engine := req.Engine
	if engine == "" {
		engine = engineCGPMAC
	}
	kernels := req.Kernels
	if len(kernels) == 0 {
		for _, k := range core.Kernels() {
			if engine == engineAnalytic && !core.Affine(k) {
				continue
			}
			kernels = append(kernels, k.Name())
		}
	}
	caches := req.Caches
	if len(caches) == 0 {
		caches = []CacheSpec{{Name: "small"}, {Name: "large"}}
	}
	type rateAxis struct {
		fit        *float64
		protection string
	}
	var rates []rateAxis
	for i := range req.FITs {
		rates = append(rates, rateAxis{fit: &req.FITs[i]})
	}
	for _, p := range req.Protections {
		rates = append(rates, rateAxis{protection: p})
	}
	if len(rates) == 0 {
		rates = []rateAxis{{protection: "none"}, {protection: "secded"}, {protection: "chipkill"}}
	}

	cells := len(kernels) * len(caches) * len(rates)
	if cells > s.cfg.MaxGridCells {
		return nil, fmt.Errorf("sweep expands to %d cells, cap is %d", cells, s.cfg.MaxGridCells)
	}
	grid := make([]AnalyzeRequest, 0, cells)
	for _, k := range kernels {
		for _, c := range caches {
			for _, rt := range rates {
				grid = append(grid, AnalyzeRequest{
					Kernel: k, Cache: c, FIT: rt.fit, Protection: rt.protection, Engine: engine,
				})
			}
		}
	}
	return grid, nil
}

// runGrid evaluates a request grid on a bounded worker pool and delivers
// rows on the returned channel in completion order (each row carries its
// grid index as Seq). The channel is buffered for the whole grid, so the
// pool never blocks on a slow consumer; it closes when the grid is done.
// Workers run without a tracez track — tracks are single-goroutine lanes,
// and the caller's sweep-level span already covers the evaluation stage.
func (s *Server) runGrid(grid []AnalyzeRequest) <-chan SweepRow {
	rows := make(chan SweepRow, len(grid))
	jobs := make(chan int)
	workers := s.cfg.Workers
	if workers > len(grid) {
		workers = len(grid)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range jobs {
				resp, _, err := s.evalAnalyze(grid[seq], nil)
				if err != nil {
					rows <- SweepRow{Seq: seq, Error: err.Error()}
					continue
				}
				rows <- SweepRow{Seq: seq, Result: resp}
			}
		}()
	}
	go func() {
		for i := range grid {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		close(rows)
	}()
	return rows
}

// handleSweep streams a grid sweep as NDJSON, one row per cell as it
// completes. Per-cell failures are rows, not request failures.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	sp := tk.Begin("parse")
	var req SweepRequest
	err := decodeJSON(w, r, &req)
	if err == nil {
		var grid []AnalyzeRequest
		if grid, err = s.expandSweep(req); err == nil {
			sp.End()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			flusher, _ := w.(http.Flusher)
			enc := json.NewEncoder(w)
			sp = tk.Begin("evaluate+stream")
			for row := range s.runGrid(grid) {
				// The status line is committed; an encode error means the
				// client went away, and draining the channel joins the workers.
				_ = enc.Encode(row)
				if flusher != nil {
					flusher.Flush()
				}
			}
			sp.End()
			return http.StatusOK
		}
	}
	sp.End()
	writeError(w, http.StatusBadRequest, err)
	return http.StatusBadRequest
}

// handleBatch evaluates many analyze requests in one round trip,
// returning position-matched results.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, tk *tracez.Track) int {
	sp := tk.Begin("parse")
	var req BatchRequest
	err := decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return http.StatusBadRequest
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("requests must be non-empty"))
		return http.StatusBadRequest
	}
	if len(req.Requests) > s.cfg.MaxGridCells {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d requests, cap is %d", len(req.Requests), s.cfg.MaxGridCells))
		return http.StatusBadRequest
	}
	sp = tk.Begin("evaluate")
	results := make([]SweepRow, len(req.Requests))
	for row := range s.runGrid(req.Requests) {
		results[row.Seq] = row
	}
	sp.End()
	sp = tk.Begin("encode")
	writeJSON(w, http.StatusOK, &BatchResponse{Results: results})
	sp.End()
	return http.StatusOK
}
