package cache

import (
	"github.com/resilience-models/dvf/internal/metrics"
	"github.com/resilience-models/dvf/internal/tracez"
)

// Engine is the replay surface of the cache simulator. *Simulator is its
// only implementation; the interface exists so callers written against
// the old multi-engine API still build. An Engine must be driven from a
// single goroutine.
type Engine interface {
	// Access presents one memory reference (split across lines as needed).
	Access(addr uint64, size uint32, write bool, owner StructID)
	// Drain waits until every submitted reference has been simulated.
	Drain()
	// Flush writes back all dirty lines and invalidates the cache.
	Flush()
	// Reset clears cache contents and all counters.
	Reset()
	// Label names a structure ID for reporting.
	Label(id StructID, name string)
	// Config returns the simulated geometry.
	Config() Config
	// StructStats returns the counters attributed to id.
	StructStats(id StructID) Stats
	// TotalStats returns the counters aggregated over all structures.
	TotalStats() Stats
	// PerStructStats returns every structure's counters.
	PerStructStats() map[StructID]Stats
	// Report renders the per-structure summary table.
	Report() string
	// Trace attaches a timeline recorder (nil is a no-op); call before
	// the first Access, from the feeding goroutine.
	Trace(tz tracez.Recorder)
	// PublishStats exports the engine's aggregate counters as gauges
	// under prefix (nil sink is a no-op).
	PublishStats(sink metrics.Sink, prefix string)
	// Close releases the engine; it stays readable afterwards.
	Close()
}

var _ Engine = (*Simulator)(nil)

// AutoHint is the hint type of NewAutoEngine. It carries no fields: there
// is one replay engine, so there is nothing to choose. It exists so
// callers of the old API still build.
type AutoHint struct{}

// AutoChoice returns 1, the worker count of the sequential simulator, for
// every input. It exists so callers of the old API still build.
func AutoChoice(cfg Config, hint AutoHint, numCPU int) int { return 1 }

// NewAutoEngine returns NewSimulator(cfg). It exists so callers of the
// old API still build.
func NewAutoEngine(cfg Config, hint AutoHint) (Engine, error) {
	s, err := NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	return s, nil
}
