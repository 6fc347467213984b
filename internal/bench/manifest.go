// Package bench reads the output of `go test -bench` into a
// schema-versioned run manifest, the machine-readable perf trajectory
// that dvf-bench writes and CI gates on. The benchmarks themselves are
// the repository's ordinary Go benchmarks; a manifest summarizes each
// one's samples (median, quartiles) with a regression bound derived from
// their spread, and Compare gates a fresh manifest against a baseline.
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
)

// Schema identifies the manifest layout. Compare refuses manifests with a
// different schema rather than misreading them; bump on any field-meaning
// change.
const Schema = "dvf-bench/v2"

// Cell is one benchmark's samples, summarized: one sample per result
// line Go printed for it, in ns/op.
type Cell struct {
	Pkg     string  `json:"pkg"`
	Name    string  `json:"name"` // without the -GOMAXPROCS suffix, Go's escaping kept
	Samples int     `json:"samples"`
	Median  float64 `json:"median_ns"`
	Q1      float64 `json:"q1_ns"`
	Q3      float64 `json:"q3_ns"`
	// Bound is the fraction by which a later run's median may exceed
	// this cell's median before Compare reports a regression.
	Bound float64 `json:"bound"`
}

// Key returns the identity under which cells are matched across manifests.
func (c Cell) Key() string { return c.Pkg + ":" + c.Name }

// Manifest is one benchmark run: the host it ran on and every cell.
// GOOS, GOARCH, CPU, GOMAXPROCS and the cells come from the `go test`
// output; Stamp fills in the rest.
type Manifest struct {
	Schema     string `json:"schema"`
	Timestamp  string `json:"timestamp"` // RFC3339 UTC
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitRev     string `json:"git_rev,omitempty"` // short commit hash, "" outside a checkout
	Cells      []Cell `json:"cells"`
}

// Stamp records the time, the Go version, the CPU count and the git
// revision of the process reading the run, which is the host and tree
// that produced it.
func (m *Manifest) Stamp() {
	m.Timestamp = time.Now().UTC().Format(time.RFC3339)
	m.GoVersion = runtime.Version()
	m.NumCPU = runtime.NumCPU()
	m.GitRev = gitRev()
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
// BENCH_<timestamp>.json (BENCH_20060102T150405Z.json), safe for
// globbing as BENCH_*.json.
func (m *Manifest) Filename() string {
	return "BENCH_" + strings.NewReplacer("-", "", ":", "").Replace(m.Timestamp) + ".json"
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
