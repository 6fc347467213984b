// Package cache implements the configurable set-associative LRU last-level
// cache simulator used to validate the CGPMAC analytical models (Section IV
// of the DVF paper). The simulator consumes a memory-reference stream and
// counts, per data structure, the number of main-memory accesses it induces:
// cache misses (loads from memory) and dirty writebacks (stores to memory).
//
// Notation follows Table III of the paper:
//
//	CA  cache associativity        (Config.Associativity)
//	NA  number of cache sets       (Config.Sets)
//	CL  cache line length in bytes (Config.LineSize)
//	Cc  cache capacity in bytes    (Config.Capacity())
package cache

import "fmt"

// Config describes a single-level (last-level) cache geometry.
type Config struct {
	Name          string // human-readable label, e.g. "Small (Verification)"
	Associativity int    // CA: lines per set
	Sets          int    // NA: number of sets
	LineSize      int    // CL: bytes per line; must be a power of two
}

// Capacity returns Cc = CA * NA * CL in bytes.
func (c Config) Capacity() int {
	return c.Associativity * c.Sets * c.LineSize
}

// Lines returns the total number of cache lines (CA * NA).
func (c Config) Lines() int {
	return c.Associativity * c.Sets
}

// MaxLines bounds a geometry's line count (Associativity * Sets): 8x the
// largest Table IV cache (8MB, 131072 lines), and a 16 MiB line slab at
// most. NewSimulator allocates every line up front; the bound stops a
// custom geometry from a request or an Aspen model sizing that allocation.
const MaxLines = 1 << 20

// Validate reports a descriptive error for a malformed geometry.
func (c Config) Validate() error {
	switch {
	case c.Associativity <= 0:
		return fmt.Errorf("cache %q: associativity %d must be positive", c.Name, c.Associativity)
	case c.Sets <= 0:
		return fmt.Errorf("cache %q: set count %d must be positive", c.Name, c.Sets)
	case c.LineSize <= 0:
		return fmt.Errorf("cache %q: line size %d must be positive", c.Name, c.LineSize)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %q: line size %d must be a power of two", c.Name, c.LineSize)
	case c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("cache %q: set count %d must be a power of two", c.Name, c.Sets)
	case c.Associativity > MaxLines || c.Sets > MaxLines/c.Associativity:
		// Dividing instead of multiplying keeps the check free of overflow.
		return fmt.Errorf("cache %q: associativity %d x %d sets exceeds the %d-line bound",
			c.Name, c.Associativity, c.Sets, MaxLines)
	}
	return nil
}

// String returns a compact geometry description.
func (c Config) String() string {
	return fmt.Sprintf("%s{CA=%d NA=%d CL=%dB Cc=%dB}",
		c.Name, c.Associativity, c.Sets, c.LineSize, c.Capacity())
}

// The cache configurations of Table IV.
//
// The paper's "1MB" and "8MB" profiling rows list CA/NA/CL whose product
// does not equal the labelled capacity (6*4096*32 B = 768 KB and
// 8*8192*64 B = 4 MB) — an internal inconsistency in the published table.
// We keep the labelled capacities, which the text's analysis depends on
// (e.g. "the cache capacity is smaller than the data structure"), and adjust
// the associativity to the nearest power-of-two value that makes the
// geometry consistent. See EXPERIMENTS.md.
var (
	// Small is the 8 KB verification cache: 4-way, 64 sets, 32 B lines.
	Small = Config{Name: "Small (Verification)", Associativity: 4, Sets: 64, LineSize: 32}
	// Large is the 4 MB verification cache: 16-way, 4096 sets, 64 B lines.
	Large = Config{Name: "Large (Verification)", Associativity: 16, Sets: 4096, LineSize: 64}
	// Profile16KB is the 16 KB profiling cache: 2-way, 1024 sets, 8 B lines.
	Profile16KB = Config{Name: "16KB (Profiling)", Associativity: 2, Sets: 1024, LineSize: 8}
	// Profile128KB is the 128 KB profiling cache: 4-way, 2048 sets, 16 B lines.
	Profile128KB = Config{Name: "128KB (Profiling)", Associativity: 4, Sets: 2048, LineSize: 16}
	// Profile1MB is the 1 MB profiling cache: 8-way, 4096 sets, 32 B lines.
	Profile1MB = Config{Name: "1MB (Profiling)", Associativity: 8, Sets: 4096, LineSize: 32}
	// Profile8MB is the 8 MB profiling cache: 16-way, 8192 sets, 64 B lines.
	Profile8MB = Config{Name: "8MB (Profiling)", Associativity: 16, Sets: 8192, LineSize: 64}
)

// ProfilingConfigs returns the four profiling caches of Table IV in
// ascending capacity order, as used by the Figure 5 DVF profiling sweep.
func ProfilingConfigs() []Config {
	return []Config{Profile16KB, Profile128KB, Profile1MB, Profile8MB}
}

// VerificationConfigs returns the two verification caches of Table IV used
// by the Figure 4 model-validation experiment.
func VerificationConfigs() []Config {
	return []Config{Small, Large}
}
