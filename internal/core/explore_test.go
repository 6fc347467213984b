package core

import (
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/trace"
)

func TestExploreSweepsFullCross(t *testing.T) {
	k, err := NewKernel("VM")
	if err != nil {
		t.Fatal(err)
	}
	caches := []CacheConfig{cache.Profile16KB, cache.Profile8MB}
	prots := []dvf.ECC{dvf.NoECC, dvf.SECDED, dvf.Chipkill}
	res, err := Explore(k, caches, prots)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	// Sorted ascending by DVF.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].DVFa < res.Points[i-1].DVFa {
			t.Error("points not sorted by DVF")
		}
	}
	// The best point must be chipkill (lowest FIT floor); the worst must
	// be unprotected on the smallest cache (most memory traffic).
	best, err := res.Best()
	if err != nil {
		t.Fatal(err)
	}
	if best.Protection.Name != dvf.Chipkill.Name {
		t.Errorf("best protection = %s, want chipkill", best.Protection.Name)
	}
	worst := res.Points[len(res.Points)-1]
	if worst.Protection.Name != dvf.NoECC.Name || worst.Cache.Name != cache.Profile16KB.Name {
		t.Errorf("worst point = %s/%s, want no-ECC on 16KB", worst.Cache.Name, worst.Protection.Name)
	}
	out := res.Render()
	if !strings.Contains(out, "Chipkill") || !strings.Contains(out, "16KB") {
		t.Errorf("render incomplete:\n%s", out)
	}
}

func TestExploreProtectionDominatesCache(t *testing.T) {
	// For the same cache, stronger protection always yields lower DVF
	// (its 5% time overhead cannot offset orders of magnitude in FIT).
	k, err := NewKernel("FT")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(k, []CacheConfig{cache.Profile16KB}, []dvf.ECC{dvf.NoECC, dvf.SECDED, dvf.Chipkill})
	if err != nil {
		t.Fatal(err)
	}
	byProt := map[string]float64{}
	for _, p := range res.Points {
		byProt[p.Protection.Name] = p.DVFa
	}
	if !(byProt[dvf.Chipkill.Name] < byProt[dvf.SECDED.Name] &&
		byProt[dvf.SECDED.Name] < byProt[dvf.NoECC.Name]) {
		t.Errorf("protection ordering broken: %v", byProt)
	}
}

func TestExploreValidation(t *testing.T) {
	k, _ := NewKernel("VM")
	if _, err := Explore(k, nil, []dvf.ECC{dvf.NoECC}); err == nil {
		t.Error("empty cache list accepted")
	}
	if _, err := Explore(k, []CacheConfig{cache.Small}, nil); err == nil {
		t.Error("empty protection list accepted")
	}
	if _, err := (&ExploreResult{}).Best(); err == nil {
		t.Error("empty result Best succeeded")
	}
}

// countingKernel counts the runs of the kernel it wraps.
type countingKernel struct {
	Kernel
	runs atomic.Int64
}

func (c *countingKernel) Run(sink trace.Consumer) (*RunInfo, error) {
	c.runs.Add(1)
	return c.Kernel.Run(sink)
}

// TestExploreRunsKernelOnce: a 3x3 exploration runs the kernel once and
// shares the run between its concurrent cells, with every point equal to
// a cell evaluated from a run of its own. NB is the kernel whose models
// read the run's visit-frequency profile.
func TestExploreRunsKernelOnce(t *testing.T) {
	base, err := NewKernel("NB")
	if err != nil {
		t.Fatal(err)
	}
	k := &countingKernel{Kernel: base}
	caches := []CacheConfig{cache.Profile16KB, cache.Profile1MB, cache.Large}
	prots := []dvf.ECC{dvf.NoECC, dvf.SECDED, dvf.Chipkill}
	res, err := Explore(k, caches, prots)
	if err != nil {
		t.Fatal(err)
	}
	if n := k.runs.Load(); n != 1 {
		t.Fatalf("Explore ran the kernel %d times, want 1", n)
	}

	var want []DesignPoint
	for _, cfg := range caches {
		for _, prot := range prots {
			info, err := base.Run(nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := explorePoint(base, info, cfg, prot)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, p)
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].DVFa < want[j].DVFa })
	if !reflect.DeepEqual(res.Points, want) {
		t.Errorf("shared-run points differ from per-cell runs:\n got %+v\nwant %+v", res.Points, want)
	}
}
