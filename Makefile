# Development gates. `make check` is the full pre-merge gate; the
# tier-1 gate in ROADMAP.md (`go build ./... && go test ./...`) is the
# subset run by automation.
#
#   make check        fmt-check + vet + lint + build + tests + race
#                     detector + bench smoke + fuzz smoke
#   make fmt-check    fail if any file is not gofmt-clean
#   make lint         run the repo's own static-analysis suite
#                     (cmd/dvf-lint) over every package; LINTFLAGS
#                     narrows it, e.g. LINTFLAGS='-only nilsink,determinism'
#   make lint-sarif   same run with -timings, also writing
#                     dvf-lint.sarif (per-checker cost table included
#                     in the run properties) for upload
#   make lint-fix-check  gate on the -fix contract: apply fixes to a
#                     dirty fixture copy, then require a clean re-run,
#                     gofmt-clean files and a passing build
#   make test         the tier-1 test run
#   make race         full suite under the race detector (slow: the
#                     experiments package replays every figure)
#   make bench-smoke  one iteration of every benchmark in the suite
#                     (BENCH_SUITE: the cache simulator's per-reference
#                     Access, the CG, MG and FT CGPMAC models on each
#                     Table IV cache, a Figure 4 cell per verification
#                     kernel and cache, the fft and multigrid Aspen
#                     evaluations, a dvf-serve analyze miss, the MG and
#                     FT analytic solves on every bundled cache), as a
#                     compile-and-run sanity check
#   make bench-gate   the same suite, ten passes of it, piped
#                     into dvf-bench: writes bench-out/BENCH_<ts>.json
#                     and fails on a median past its cell's bound in
#                     testdata/bench_baseline.json (timings gated only on
#                     the capture host) or on a benchmark missing from
#                     either side; about 2 minutes on 2 cores
#   make bench        full benchmark suite (regenerates every figure)
#   make fuzz-smoke   bounded fuzz of the simulator against its naive LRU
#                     oracle, line-run repeats (AccessRun, VisitRun),
#                     strided groups (AccessStrided) and the set-restricted
#                     simulator against plain walks, CG's quiet rows and
#                     MG's plane translation against their element
#                     walks, the kernels' descriptors against their
#                     traces at sizes the suites do not use, the trace
#                     container round-trip
#                     (incl. misalignment and truncation), the template
#                     counter against its brute-force oracles, the Aspen
#                     compiler end to end (never a panic; templates
#                     equal to their flattened walk), steady-state
#                     extrapolation against full simulation (templates,
#                     and traced streams with period boundaries), bench
#                     manifest decoding for -compare and dvf-bench's
#                     reader of `go test -bench` output; FUZZTIME bounds
#                     each target (default 10s)
#   make trace-smoke  record the fig4 and fig7 timelines with -trace-out
#                     and schema-validate each with dvf-flame -check
#   make analytic-smoke  the analytic engine's red/green signal: the live
#                     analytic-vs-simulator differential (hard-fails on
#                     any tolerance breach), a trace-free CLI pass over
#                     every bundled cache, a bounded fuzz of the solver
#                     against the sequential simulator and one of the
#                     solver against its per-row reference (bitwise)
#   make serve-smoke  end-to-end service gate: ephemeral dvf-serve
#                     instance, loadtest client fleet over real HTTP,
#                     non-empty /metrics + /statusz, the throughput bar
#                     (SERVE_MIN_EPM evals/min) and a graceful drain;
#                     writes the latency digest to SERVE_LATENCY

GO ?= go
FUZZTIME ?= 10s
LINTFLAGS ?=

.PHONY: check fmt-check vet lint lint-sarif lint-fix-check build test race bench-smoke bench-gate bench fuzz-smoke trace-smoke analytic-smoke serve-smoke

check: fmt-check vet lint lint-fix-check build test race bench-smoke fuzz-smoke trace-smoke analytic-smoke serve-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/dvf-lint $(LINTFLAGS) ./...

# SARIF variant for CI: the report is written before the exit status is
# decided, so a failing run still produces an uploadable file. -timings
# prints the per-checker cost table to the job log and records it in
# the SARIF run properties, so checker-cost drift is visible in CI.
lint-sarif:
	$(GO) run ./cmd/dvf-lint -timings -sarif dvf-lint.sarif $(LINTFLAGS) ./...

# The -fix contract, end to end on the checked-in dirty fixture: build
# the linter, fix a scratch copy, and require the re-run to be clean,
# the files gofmt-idempotent and the fixture module to still build.
lint-fix-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	cp -r cmd/dvf-lint/testdata/fixture/. "$$tmp"/ && \
	$(GO) build -o "$$tmp"/dvf-lint ./cmd/dvf-lint && \
	(cd "$$tmp" && ./dvf-lint -fix ./...) && \
	(cd "$$tmp" && ./dvf-lint ./...) && \
	out=$$(gofmt -l "$$tmp"/internal) && \
	if [ -n "$$out" ]; then echo "gofmt needed after -fix:"; echo "$$out"; exit 1; fi && \
	(cd "$$tmp" && $(GO) build ./...) && \
	echo "lint-fix-check: fix round-trip clean"

build:
	$(GO) build ./...

# TESTFLAGS threads extra `go test` flags through, e.g.
# `make test TESTFLAGS=-shuffle=on` (what CI runs, to keep the suite
# order-independent).
TESTFLAGS ?=
test:
	$(GO) test $(TESTFLAGS) ./...

race:
	$(GO) test -race ./...

# The benchmark suite, named once. Every benchmark it matches measures a
# path a command runs; dvf-bench keys each by package and name, so the
# suite and testdata/bench_baseline.json must change together.
BENCH_SUITE = ^Benchmark(SimulatorAccess|(CG|MG|FT)TemplateModel|VerifyKernel|AspenEvaluate|ServeAnalyzeMiss|AnalyticSolve)$$

bench-smoke:
	$(GO) test -run '^$$' -bench '$(BENCH_SUITE)' -benchtime=1x ./internal/...

# Ten passes of the suite give each benchmark ten samples spread over
# the whole run, so a cell's spread, and the bound dvf-bench derives from
# it, also sees the host's drift over those minutes; `-count 10` would
# take the ten samples back to back. A failed benchmark or package build
# prints FAIL, which dvf-bench rejects, so the gate fails although the
# pipe's status is dvf-bench's.
bench-gate:
	for pass in 1 2 3 4 5 6 7 8 9 10; do \
		$(GO) test -run '^$$' -bench '$(BENCH_SUITE)' -benchtime=100ms ./internal/...; \
	done | $(GO) run ./cmd/dvf-bench -out bench-out -compare testdata/bench_baseline.json

bench:
	$(GO) test -run '^$$' -bench=. -benchmem .

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSimulatorVsReference$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzAccessRunVsAccess$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzStridedVsAccess$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzSetSimulatorVsSimulator$$' -fuzztime $(FUZZTIME) ./internal/cache
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeDecodeV2$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzSteadyReplayVsFull$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzTemplateCounterVsNaive$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzVisitRunVsVisit$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzSteadyStateVsFull$$' -fuzztime $(FUZZTIME) ./internal/patterns
	$(GO) test -run '^$$' -fuzz '^FuzzCGQuietRowsVsElementWalk$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz '^FuzzMGPlaneShiftVsElementWalk$$' -fuzztime $(FUZZTIME) ./internal/kernels
	$(GO) test -run '^$$' -fuzz '^FuzzDescriptorMatchesTrace$$' -fuzztime $(FUZZTIME) ./internal/analytic
	$(GO) test -run '^$$' -fuzz '^FuzzAspenEvaluate$$' -fuzztime $(FUZZTIME) ./internal/aspen
	$(GO) test -run '^$$' -fuzz '^FuzzReadManifestCompare$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 5s ./internal/bench

TRACEOUT ?= trace-out
trace-smoke:
	mkdir -p $(TRACEOUT)
	$(GO) run ./cmd/dvf-verify -workers 2 -csv -trace-out $(TRACEOUT)/fig4.json > /dev/null
	$(GO) run ./cmd/dvf-flame -check $(TRACEOUT)/fig4.json
	$(GO) run ./cmd/dvf-usecase -case ecc -csv -trace-out $(TRACEOUT)/fig7.json > /dev/null
	$(GO) run ./cmd/dvf-flame -check $(TRACEOUT)/fig7.json

analytic-smoke:
	$(GO) run ./cmd/dvf-verify -engine analytic
	$(GO) run ./cmd/dvf-trace -engine analytic -kernel CG -all > /dev/null
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyticVsSimulator$$' -fuzztime $(FUZZTIME) ./internal/analytic
	$(GO) test -run '^$$' -fuzz '^FuzzSolveVsPerRow$$' -fuzztime $(FUZZTIME) ./internal/analytic

# The service wall: dvf-serve -smoke is fully self-contained (in-process
# server on an ephemeral port, real HTTP load, /metrics and /statusz
# probes, graceful drain) and fails unless sustained throughput clears
# SERVE_MIN_EPM analytic evaluations per minute. The latency histogram
# digest lands in SERVE_LATENCY; CI uploads it as an artifact.
SERVE_MIN_EPM ?= 100000
SERVE_LATENCY ?= serve-latency.json
serve-smoke:
	$(GO) run ./cmd/dvf-serve -smoke -min-epm $(SERVE_MIN_EPM) -out $(SERVE_LATENCY)
