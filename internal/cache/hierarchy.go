package cache

import (
	"fmt"
	"strings"

	"github.com/resilience-models/dvf/internal/tracez"
)

// Hierarchy is a multi-level inclusive cache: references filter through
// L1, L2, ... down to the last level, and only last-level misses (plus
// dirty writebacks leaving the last level) reach main memory.
//
// The paper models the last level only, arguing it "has the largest impact
// on the number of main memory accesses within the cache hierarchy. This
// is especially true for inclusive caches", and defers the rest to ongoing
// work. Hierarchy implements that ongoing work so the claim can be
// checked empirically: upper levels filter the reference stream the last
// level sees (hits stop the walk), which perturbs the last level's LRU
// recency but — because upper levels are far smaller — leaves its miss
// count close to a standalone last-level simulation. The
// TestHierarchyLLCApproximation test quantifies the gap on the paper's
// kernels, validating the LLC-only modeling assumption.
type Hierarchy struct {
	levels []*Simulator
}

// NewHierarchy builds an inclusive hierarchy from the given geometries,
// ordered from the level closest to the core (L1) to the last level.
// Every level must be strictly larger than the previous one.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	for i, cfg := range cfgs {
		if i > 0 && cfg.Capacity() <= cfgs[i-1].Capacity() {
			return nil, fmt.Errorf("cache: level %d (%s) not larger than level %d (%s)",
				i+1, cfg, i, cfgs[i-1])
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, sim)
	}
	return h, nil
}

// Levels returns the number of cache levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Level returns the simulator for level i (0 = L1).
func (h *Hierarchy) Level(i int) *Simulator { return h.levels[i] }

// LastLevel returns the simulator whose misses define main-memory traffic.
func (h *Hierarchy) LastLevel() *Simulator { return h.levels[len(h.levels)-1] }

// Access filters one reference through the hierarchy: each level records
// the access; a hit at level i stops the walk (lower levels are not
// disturbed), and a miss continues downward. This models an inclusive
// hierarchy where every resident upper-level line is also resident below.
//
//dvf:hotpath
func (h *Hierarchy) Access(addr uint64, size uint32, write bool, owner StructID) {
	for _, lvl := range h.levels {
		if !lvl.missed(addr, size, write, owner) {
			return // hit: satisfied at this level
		}
	}
}

// Flush flushes every level (upper levels first, matching how inclusive
// hierarchies drain), attributing writebacks per level.
func (h *Hierarchy) Flush() {
	for _, lvl := range h.levels {
		lvl.Flush()
	}
}

// Trace attaches a timeline to every level: one track per level
// ("cache.L1", "cache.L2", …) with flush/reset spans and a per-level
// progress counter, so the filtering effect of the upper levels is
// directly visible as diverging progress rates. A nil recorder is a
// no-op.
func (h *Hierarchy) Trace(tz tracez.Recorder) {
	if tz == nil {
		return
	}
	for i, lvl := range h.levels {
		lvl.traceNamed(tz, fmt.Sprintf("cache.L%d", i+1))
	}
}

// MemoryAccesses returns main-memory loads + stores: the last level's
// misses and writebacks.
func (h *Hierarchy) MemoryAccesses(owner StructID) int64 {
	return h.LastLevel().StructStats(owner).MemoryAccesses()
}

// Report renders per-level summaries.
func (h *Hierarchy) Report() string {
	var b strings.Builder
	for i, lvl := range h.levels {
		fmt.Fprintf(&b, "L%d %s", i+1, lvl.Report())
	}
	return b.String()
}

// TypicalHierarchy returns a 3-level hierarchy shaped like the era's
// server parts: 32 KB L1 (8-way, 64 B), 256 KB L2 (8-way, 64 B) and the
// given last-level configuration.
func TypicalHierarchy(llc Config) (*Hierarchy, error) {
	l1 := Config{Name: "L1", Associativity: 8, Sets: 64, LineSize: 64}
	l2 := Config{Name: "L2", Associativity: 8, Sets: 512, LineSize: 64}
	return NewHierarchy(l1, l2, llc)
}
