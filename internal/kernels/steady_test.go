package kernels

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/trace"
)

// replayBoth runs mk() once into cfg's simulator through its RefConsumer,
// which may stop at a steady state, and once through a plain
// trace.ConsumerFunc, which sees every reference. It returns both
// simulators and run infos.
func replayBoth(t *testing.T, mk func() Kernel, cfg cache.Config) (steady, full *cache.Simulator, si, fi *RunInfo) {
	t.Helper()
	steady, err := cache.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err = cache.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if si, err = mk().Run(steady.Consumer()); err != nil {
		t.Fatal(err)
	}
	plain := full.Consumer()
	if fi, err = mk().Run(trace.ConsumerFunc(plain.Access)); err != nil {
		t.Fatal(err)
	}
	return steady, full, si, fi
}

// requireSameReplay fails unless both simulators hold equal per-structure
// and total counters and both runs report equal RunInfo.
func requireSameReplay(t *testing.T, steady, full *cache.Simulator, si, fi *RunInfo) {
	t.Helper()
	if got, want := steady.PerStructStats(), full.PerStructStats(); !reflect.DeepEqual(got, want) {
		t.Errorf("PerStructStats: steady-state %v, full %v", got, want)
	}
	if got, want := steady.TotalStats(), full.TotalStats(); got != want {
		t.Errorf("TotalStats: steady-state %+v, full %+v", got, want)
	}
	if si.Refs != fi.Refs {
		t.Errorf("RunInfo.Refs: steady-state %d, full %d", si.Refs, fi.Refs)
	}
	if !reflect.DeepEqual(si, fi) {
		t.Errorf("RunInfo: steady-state %+v, full %+v", si, fi)
	}
}

// TestSteadyReplayMatchesFull is the steady-state replay differential:
// every verification kernel on every Table IV geometry and on one that
// holds every kernel's data, plus CG run to convergence, give the
// simulator the same counters and the run the same RunInfo whether the
// simulator may stop at a steady state or sees every reference. The
// Figure 4 rows are those counters' misses against models of that
// RunInfo, so they are equal too. On the geometry that fits, CG's first
// iteration evicts nothing, so it is the only one simulated.
func TestSteadyReplayMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every kernel on seven geometries twice")
	}
	type tc struct {
		name string
		mk   func() Kernel
	}
	var cases []tc
	for _, k := range VerificationSuite() {
		name := k.Name()
		cases = append(cases, tc{name, func() Kernel { k, _ := ByName(name); return k }})
	}
	cases = append(cases, tc{"CG-tol", func() Kernel { return NewCGToConvergence(120, 1e-8) }})
	fits := cache.Config{Name: "fits", Associativity: 16, Sets: 16384, LineSize: 64}
	configs := append(append(cache.VerificationConfigs(), cache.ProfilingConfigs()...), fits)
	for _, c := range cases {
		for _, cfg := range configs {
			t.Run(c.name+"/"+cfg.Name, func(t *testing.T) {
				steady, full, si, fi := replayBoth(t, c.mk, cfg)
				requireSameReplay(t, steady, full, si, fi)
				if n, _ := full.Extrapolated(); n != 0 {
					t.Errorf("a plain consumer extrapolated %d periods", n)
				}
				periods, _ := steady.Extrapolated()
				if c.name == "CG" && periods == 0 {
					t.Errorf("CG on %s simulated every iteration", cfg.Name)
				}
				if c.name == "CG" && cfg == fits {
					if ev := full.TotalStats().Evictions; ev != 0 || periods != 9 {
						t.Errorf("CG on a cache that holds it: %d evictions, %d of 10 iterations extrapolated; want 0 and 9", ev, periods)
					}
				}
			})
		}
	}
}

// TestCGSteadyReplayStopsEarly pins the saving: the references that
// reach the simulator during the Figure 4 CG run (n=500, 10 iterations)
// are the prefix (the initial rho loop) plus at most two of the ten
// iterations on the Small cache, where iteration 2 ends in the state
// iteration 1 left, and plus exactly one on the Large cache, where
// iteration 1 evicts nothing; the other 9 are extrapolated.
func TestCGSteadyReplayStopsEarly(t *testing.T) {
	k := NewCG(500, 10)
	n := int64(k.N)
	prefix := n
	iteration := n*(2*n+1) + 2*n + 3*n + 3*n + n + 3*n
	for _, cfg := range cache.VerificationConfigs() {
		sim, err := cache.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		info, err := k.Run(trace.Instrumented(sim.Consumer(), reg, "t"))
		if err != nil {
			t.Fatal(err)
		}
		if want := prefix + 10*iteration; info.Refs != want {
			t.Fatalf("%s: RunInfo.Refs %d, want %d", cfg.Name, info.Refs, want)
		}
		delivered := reg.Snapshot().Counters["t.refs"]
		if limit := prefix + 2*iteration; delivered > limit {
			t.Errorf("%s: %d references reached the simulator, want at most %d (prefix + 2 iterations)",
				cfg.Name, delivered, limit)
		}
		periods, refs := sim.Extrapolated()
		if delivered+refs != info.Refs || periods != (info.Refs-delivered)/iteration {
			t.Errorf("%s: %d delivered + %d extrapolated in %d periods, want %d refs in whole iterations",
				cfg.Name, delivered, refs, periods, info.Refs)
		}
		if cfg == cache.Large && (delivered != prefix+iteration || periods != 9) {
			t.Errorf("%s: %d references delivered and %d periods extrapolated, want %d (prefix + 1 iteration) and 9",
				cfg.Name, delivered, periods, prefix+iteration)
		}
	}
}

// TestCGInjectedMatchesFull: an injected run never extrapolates (the
// injector wrapping the sink has no EndPeriod), so a flip in iteration 3
// or later, after the cache state has repeated, gives the simulator the
// same counters behind its RefConsumer as behind a plain consumer.
func TestCGInjectedMatchesFull(t *testing.T) {
	const n, iters = 100, 8
	iteration := int64(n*(2*n+1) + 12*n)
	for _, it := range []int64{3, 5, 8} {
		fault := Fault{Structure: "p", ByteOffset: 8 * 17, Bit: 6, AtRef: n + (it-1)*iteration + 5*n}
		for _, cfg := range cache.VerificationConfigs() {
			t.Run(fmt.Sprintf("iter%d/%s", it, cfg.Name), func(t *testing.T) {
				steady, full, si, fi := replayBoth(t, func() Kernel { return injected{NewCG(n, iters), fault} }, cfg)
				requireSameReplay(t, steady, full, si, fi)
				if p, _ := steady.Extrapolated(); p != 0 {
					t.Errorf("an injected run extrapolated %d periods", p)
				}
			})
		}
	}
}

// injected runs its kernel with the fault armed.
type injected struct {
	Injectable
	fault Fault
}

func (k injected) Run(sink trace.Consumer) (*RunInfo, error) { return k.RunInjected(k.fault, sink) }

// TestStridedReplayMatchesElements is the strided-group differential.
// The simulator's RefConsumer takes CG's matvec and MG's smooth,
// restrict and prolong one strided group per inner loop, while a plain
// trace.ConsumerFunc takes every reference of the element loops. On the
// geometries where line runs are shortest or conflicts most common
// (direct-mapped, one-set, 4-byte lines), MG over its sizes, cycles and
// sweeps and CG at odd n must give both equal counters and the same
// RunInfo, Checksum bits included. So must Run(nil), which takes the
// grouped bodies with no consumer at all, and an Instrumented simulator,
// which must forward the groups and tally every reference delivered.
// Injected runs take the element loops behind either consumer and must
// match too.
func TestStridedReplayMatchesElements(t *testing.T) {
	if testing.Short() {
		t.Skip("replays MG and CG on three geometries several ways")
	}
	type tc struct {
		name  string
		mk    func() Kernel
		fault Fault
	}
	var cases []tc
	for _, n := range []int{8, 16, 32} {
		for _, cycles := range []int{1, 2} {
			for _, smooth := range []int{1, 2} {
				mg := MG{N: n, Cycles: cycles, Smooth: smooth}
				cases = append(cases, tc{
					name:  fmt.Sprintf("MG-n%d-c%d-s%d", n, cycles, smooth),
					mk:    func() Kernel { k := mg; return &k },
					fault: Fault{Structure: "R", ByteOffset: 8*int64(n*n+3) + 7, Bit: 4, AtRef: int64(n * n * n)},
				})
			}
		}
	}
	for _, n := range []int{37, 101} {
		cases = append(cases, tc{
			name:  fmt.Sprintf("CG-n%d", n),
			mk:    func() Kernel { return NewCG(n, 4) },
			fault: Fault{Structure: "A", ByteOffset: 8*int64(n+1) + 6, Bit: 3, AtRef: int64(n * n)},
		})
	}
	for _, c := range cases {
		for _, cfg := range lineRunGeometries()[6:] {
			t.Run(c.name+"/"+cfg.Name, func(t *testing.T) {
				steady, full, si, fi := replayBoth(t, c.mk, cfg)
				requireSameReplay(t, steady, full, si, fi)
				requireSameChecksum(t, "RefConsumer", si, fi)

				ni, err := c.mk().Run(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ni, fi) {
					t.Errorf("RunInfo: Run(nil) %+v, element loops %+v", ni, fi)
				}
				requireSameChecksum(t, "Run(nil)", ni, fi)

				sim, err := cache.NewSimulator(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reg := metrics.New()
				sink := trace.Instrumented(sim.Consumer(), reg, "t")
				if _, ok := sink.(trace.GroupConsumer); !ok {
					t.Fatalf("Instrumented over the simulator takes no groups")
				}
				ii, err := c.mk().Run(sink)
				if err != nil {
					t.Fatal(err)
				}
				requireSameReplay(t, sim, full, ii, fi)
				_, extrapolated := sim.Extrapolated()
				if delivered := reg.Snapshot().Counters["t.refs"]; delivered+extrapolated != ii.Refs {
					t.Errorf("Instrumented tallied %d references and %d were extrapolated, want %d in all",
						delivered, extrapolated, ii.Refs)
				}

				inj := func() Kernel { return injected{c.mk().(Injectable), c.fault} }
				steady, full, si, fi = replayBoth(t, inj, cfg)
				requireSameReplay(t, steady, full, si, fi)
				requireSameChecksum(t, "injected", si, fi)
				if fi.Checksum == ni.Checksum {
					t.Errorf("the injected run's checksum %v equals the clean run's", fi.Checksum)
				}
			})
		}
	}
}

// requireSameChecksum fails unless both checksums have the same bits,
// which reflect.DeepEqual does not check for NaN or signed zeros.
func requireSameChecksum(t *testing.T, path string, got, want *RunInfo) {
	t.Helper()
	if math.Float64bits(got.Checksum) != math.Float64bits(want.Checksum) {
		t.Errorf("%s: Checksum %x, element loops %x", path, math.Float64bits(got.Checksum), math.Float64bits(want.Checksum))
	}
}
