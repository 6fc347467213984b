// Differential wall of the batched replay paths: for every registered
// kernel, replaying the stream through AccessBatch — directly and through
// a v2 trace encode/decode round trip — must produce exactly the
// per-reference replay's per-structure counters (Accesses, Hits, Misses,
// Writebacks and Evictions), totals and report on every cache geometry.
//
// This file lives in package cache_test because it drives the real Table II
// kernels, and the kernels package (via patterns) imports cache.
package cache_test

import (
	"bytes"
	"sync"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/trace"
)

// diffKernels returns one modest-sized instance per kernel registered in
// internal/kernels/registry.go (the Table II codes). The sizes are scaled
// down from the verification suite so the full kernel × config matrix
// stays fast enough to run under -race, while every access pattern class
// — streaming, template+reuse, random tree walk, stencil, butterfly and
// random lookup — is still replayed.
func diffKernels() []kernels.Kernel {
	return []kernels.Kernel{
		kernels.NewVM(1000),
		kernels.NewCG(100, 3),
		kernels.NewNB(300),
		kernels.NewMG(16, 1),
		kernels.NewFT(512),
		kernels.NewMC(1000),
	}
}

// TestDiffKernelsCoverRegistry pins diffKernels to the registry: if a new
// kernel code appears in Table II, this test fails until the differential
// suite covers it.
func TestDiffKernelsCoverRegistry(t *testing.T) {
	covered := map[string]bool{}
	for _, k := range diffKernels() {
		covered[k.Name()] = true
	}
	for _, row := range kernels.TableIIRows() {
		if !covered[row.Code] {
			t.Errorf("kernel %s is registered but missing from the differential suite", row.Code)
		}
	}
	if len(covered) < len(kernels.TableIIRows()) {
		t.Errorf("suite covers %d kernels, registry has %d", len(covered), len(kernels.TableIIRows()))
	}
}

// diffConfigs returns the three cache geometries of the differential
// matrix: the Table IV verification cache, the smallest-line profiling
// cache (8 B lines maximize multi-line splits), and a tiny direct-mapped
// cache that makes every reference a potential eviction.
func diffConfigs() []cache.Config {
	return []cache.Config{
		cache.Small,
		cache.Profile16KB,
		{Name: "direct-mapped", Associativity: 1, Sets: 4, LineSize: 32},
	}
}

// recordOnce caches each kernel's reference stream so the matrix replays a
// recording instead of re-running the kernel per cell.
var (
	recMu   sync.Mutex
	recMap  = map[string]*trace.Recorder{}
	ownersM = map[string][]cache.StructID{}
)

func recordKernel(t *testing.T, k kernels.Kernel) (*trace.Recorder, []cache.StructID) {
	t.Helper()
	recMu.Lock()
	defer recMu.Unlock()
	if rec, ok := recMap[k.Name()]; ok {
		return rec, ownersM[k.Name()]
	}
	rec := &trace.Recorder{}
	if _, err := k.Run(rec); err != nil {
		t.Fatalf("running %s: %v", k.Name(), err)
	}
	seen := map[cache.StructID]bool{cache.Unattributed: true}
	var ids []cache.StructID
	for _, o := range rec.Owners {
		if !seen[cache.StructID(o)] {
			seen[cache.StructID(o)] = true
			ids = append(ids, cache.StructID(o))
		}
	}
	ids = append(ids, cache.Unattributed)
	recMap[k.Name()] = rec
	ownersM[k.Name()] = ids
	return rec, ids
}

func replay(e *cache.Simulator, rec *trace.Recorder) {
	for i, r := range rec.Refs {
		e.Access(r.Addr, r.Size, r.Write, cache.StructID(rec.Owners[i]))
	}
	e.Flush()
}

// batchOf converts a cached recording to struct-of-arrays form, memoized
// per kernel alongside the Recorder cache.
var batchMap = map[string]*trace.BatchRecorder{}

func batchKernel(t *testing.T, k kernels.Kernel) (*trace.BatchRecorder, []cache.StructID) {
	t.Helper()
	rec, ids := recordKernel(t, k)
	recMu.Lock()
	defer recMu.Unlock()
	if br, ok := batchMap[k.Name()]; ok {
		return br, ids
	}
	br := &trace.BatchRecorder{}
	for i, r := range rec.Refs {
		br.Access(r, rec.Owners[i])
	}
	batchMap[k.Name()] = br
	return br, ids
}

// replayBatched feeds the stream through AccessBatch in DefaultBatch-sized
// views — the exact shape the batched drivers (TraceFile.Replay, dvf-bench)
// produce.
func replayBatched(e *cache.Simulator, br *trace.BatchRecorder) {
	whole := br.Batch
	var view trace.RefBatch
	for lo := 0; lo < whole.Len(); lo += trace.DefaultBatch {
		hi := lo + trace.DefaultBatch
		if hi > whole.Len() {
			hi = whole.Len()
		}
		view = whole.Slice(lo, hi)
		e.AccessBatch(&view)
	}
	e.Flush()
}

// TestBatchReplayDifferentialAllKernels is the batched test wall: for
// every registered kernel × geometry, replaying the stream through
// AccessBatch — directly and through a v2 encode/decode round trip — must
// reproduce the per-reference replay's Stats and report byte-for-byte.
func TestBatchReplayDifferentialAllKernels(t *testing.T) {
	for _, k := range diffKernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			rec, ids := recordKernel(t, k)
			br, _ := batchKernel(t, k)

			// The v2 container round trip shared by all geometries.
			var v2buf bytes.Buffer
			w := trace.NewWriterV2(&v2buf, trace.NewRegistry())
			w.AccessBatch(&br.Batch)
			if err := w.Flush(); err != nil {
				t.Fatalf("encoding %s as v2: %v", k.Name(), err)
			}
			v2tr, err := trace.DecodeV2(v2buf.Bytes())
			if err != nil {
				t.Fatalf("decoding %s v2 container: %v", k.Name(), err)
			}

			for _, cfg := range diffConfigs() {
				seq, err := cache.NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replay(seq, rec)
				seqReport := seq.Report()

				check := func(label string, e *cache.Simulator) {
					t.Helper()
					for _, id := range ids {
						if got, want := e.StructStats(id), seq.StructStats(id); got != want {
							t.Errorf("%s on %s, %s, struct %d: %+v != per-reference %+v",
								k.Name(), cfg.Name, label, id, got, want)
						}
					}
					if got, want := e.TotalStats(), seq.TotalStats(); got != want {
						t.Errorf("%s on %s, %s: totals %+v != %+v", k.Name(), cfg.Name, label, got, want)
					}
					if got := e.Report(); got != seqReport {
						t.Errorf("%s on %s, %s: reports differ", k.Name(), cfg.Name, label)
					}
				}

				seqBatch, err := cache.NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replayBatched(seqBatch, br)
				check("sequential batched", seqBatch)

				v2seq, err := cache.NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				v2tr.Batches(trace.DefaultBatch, v2seq.AccessBatch)
				v2seq.Flush()
				check("v2 round-trip", v2seq)
			}
		})
	}
}
