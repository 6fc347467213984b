// Package bench runs the trace→cache replay pipeline as a benchmark and
// records the outcome in a schema-versioned run manifest, the
// machine-readable perf trajectory that dvf-bench writes and CI gates on.
// A manifest from one commit can be compared against a manifest from
// another (Compare) to flag ns/ref regressions before they merge.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/metrics"
)

// Schema identifies the manifest layout. Compare refuses manifests with a
// different schema rather than misreading them; bump on any field-meaning
// change.
const Schema = "dvf-bench/v1"

// Cell is one benchmarked (kernel, cache, engine) combination. WallNs is
// the best (minimum) wall time across iterations — the standard defense
// against scheduler noise in short benchmarks — and NsPerRef is WallNs
// divided by the replayed reference count.
type Cell struct {
	Kernel   string      `json:"kernel"`
	Cache    string      `json:"cache"`
	Engine   string      `json:"engine"` // "sequential", "analytic" or "serve"
	Workers  int         `json:"workers"`
	Iters    int         `json:"iters"`
	Refs     int64       `json:"refs"`
	WallNs   int64       `json:"wall_ns"`
	NsPerRef float64     `json:"ns_per_ref"`
	Stats    cache.Stats `json:"stats"` // total replay counters; zero on analytic and serve cells
}

// Key returns the identity under which cells are matched across manifests.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/%s", c.Kernel, c.Cache, c.Engine)
}

// Manifest is one dvf-bench run: the environment it ran in, every
// benchmarked cell, and the pipeline's own metrics snapshot (recording
// and replay counters, memory high-water marks).
type Manifest struct {
	Schema     string           `json:"schema"`
	Timestamp  string           `json:"timestamp"` // RFC3339 UTC
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	GitRev     string           `json:"git_rev,omitempty"` // short commit hash, "" outside a checkout
	Cells      []Cell           `json:"cells"`
	Metrics    metrics.Snapshot `json:"metrics"`
}

// NewManifest returns an empty manifest stamped with the current
// environment and time.
func NewManifest() *Manifest {
	return &Manifest{
		Schema:     Schema,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     gitRev(),
	}
}

// gitRev returns the short commit hash of the working tree, with a
// "+dirty" suffix when uncommitted changes are present. Best-effort: any
// failure (no git binary, not a checkout, shallow CI tarball) yields ""
// and the manifest simply omits the field.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return ""
	}
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil &&
		len(strings.TrimSpace(string(status))) > 0 {
		rev += "+dirty"
	}
	return rev
}

// Filename returns the canonical manifest file name for this run,
// BENCH_<timestamp>.json, safe for globbing as BENCH_*.json.
func (m *Manifest) Filename() string {
	t, err := time.Parse(time.RFC3339, m.Timestamp)
	if err != nil {
		t = time.Now().UTC()
	}
	return "BENCH_" + t.UTC().Format("20060102T150405Z") + ".json"
}

// WriteJSON encodes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// maxManifestBytes bounds what ReadManifest will read. A full run's
// manifest is tens of kilobytes; anything past this limit is refused
// rather than decoded.
const maxManifestBytes = 4 << 20

// ReadManifest decodes a manifest and validates its schema tag. It fails
// closed on hostile input: it reads at most maxManifestBytes (4 MiB), and it
// rejects anything but whitespace after the JSON object.
func ReadManifest(r io.Reader) (*Manifest, error) {
	lr := &io.LimitedReader{R: r, N: maxManifestBytes + 1}
	dec := json.NewDecoder(lr)
	var m Manifest
	err := dec.Decode(&m)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("trailing data after the manifest object")
		}
	}
	if lr.N <= 0 {
		return nil, fmt.Errorf("bench: manifest exceeds %d bytes", maxManifestBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("bench: decoding manifest: %w", err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("bench: manifest schema %q, this binary speaks %q", m.Schema, Schema)
	}
	return &m, nil
}

// ReadManifestFile reads a manifest from disk.
func ReadManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadManifest(f)
}
