// Differential wall of trace-file replay: for every registered kernel,
// replaying the stream through a v2 trace encode/decode round trip into
// Simulator.Consumer — the path dvf-trace -replay takes — must produce
// exactly the live per-reference replay's per-structure counters
// (Accesses, Hits, Misses, Writebacks and Evictions), totals and report
// on every cache geometry.
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

// decodeV2 encodes rec as a v2 container and decodes it again.
func decodeV2(t testing.TB, rec *trace.Recorder) *trace.TraceV2 {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriterV2(&buf, trace.NewRegistry())
	for i, r := range rec.Refs {
		w.Access(r, rec.Owners[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("encoding v2: %v", err)
	}
	tr, err := trace.DecodeV2(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding v2: %v", err)
	}
	return tr
}

// TestV2ReplayDifferentialAllKernels: for every registered kernel ×
// geometry, replaying the stream through a v2 encode/decode round trip
// and TraceV2.Replay must reproduce the per-reference replay's Stats and
// report byte-for-byte.
func TestV2ReplayDifferentialAllKernels(t *testing.T) {
	for _, k := range diffKernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			rec, ids := recordKernel(t, k)
			v2tr := decodeV2(t, rec)
			for _, cfg := range diffConfigs() {
				seq, err := cache.NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				replay(seq, rec)
				v2seq, err := cache.NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				v2tr.Replay(v2seq.Consumer())
				v2seq.Flush()

				for _, id := range ids {
					if got, want := v2seq.StructStats(id), seq.StructStats(id); got != want {
						t.Errorf("%s on %s, struct %d: v2 replay %+v != per-reference %+v",
							k.Name(), cfg.Name, id, got, want)
					}
				}
				if got, want := v2seq.TotalStats(), seq.TotalStats(); got != want {
					t.Errorf("%s on %s: v2 replay totals %+v != %+v", k.Name(), cfg.Name, got, want)
				}
				if v2seq.Report() != seq.Report() {
					t.Errorf("%s on %s: v2 replay report differs", k.Name(), cfg.Name)
				}
			}
		})
	}
}
