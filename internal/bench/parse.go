package bench

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// maxRunBytes bounds what Parse reads. Ten passes of the whole suite
// print under 200 KB; anything past this limit is refused.
const maxRunBytes = 16 << 20

// Parse reads `go test -bench` output: the goos, goarch, pkg and cpu
// header lines and one `BenchmarkName-P  N  X ns/op ...` line per sample.
// Samples of one benchmark in one package (its -count repeats, or its
// results in repeated runs) form one cell. Other lines (PASS, ok, b.Log
// output) are skipped; a failed benchmark or test binary, results at two
// GOMAXPROCS values, headers naming two hosts, a malformed result line,
// input past maxRunBytes and input with no result at all are errors.
func Parse(r io.Reader) (*Manifest, error) {
	lr := &io.LimitedReader{R: r, N: maxRunBytes + 1}
	sc := bufio.NewScanner(lr)
	m := &Manifest{Schema: Schema}
	samples := map[Cell][]float64{}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		var err error
		switch {
		case strings.HasPrefix(line, "goos: "):
			err = setOnce("goos", &m.GOOS, line)
		case strings.HasPrefix(line, "goarch: "):
			err = setOnce("goarch", &m.GOARCH, line)
		case strings.HasPrefix(line, "cpu: "):
			err = setOnce("cpu", &m.CPU, line)
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case line == "FAIL", strings.HasPrefix(line, "FAIL\t"),
			strings.HasPrefix(line, "--- FAIL"), strings.HasPrefix(line, "panic: "):
			err = fmt.Errorf("the benchmark run failed: %q", line)
		case strings.HasPrefix(line, "Benchmark"):
			var name string
			var procs int
			var ns float64
			name, procs, ns, err = parseResult(line)
			if err != nil || name == "" {
				break
			}
			if pkg == "" {
				err = fmt.Errorf("result before any pkg: line: %q", line)
				break
			}
			if m.GOMAXPROCS != 0 && m.GOMAXPROCS != procs {
				err = fmt.Errorf("results at GOMAXPROCS %d and %d; run the suite at one -cpu value",
					m.GOMAXPROCS, procs)
				break
			}
			m.GOMAXPROCS = procs
			key := Cell{Pkg: pkg, Name: name}
			samples[key] = append(samples[key], ns)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: %w", err)
		}
	}
	if lr.N <= 0 {
		return nil, fmt.Errorf("bench: benchmark output exceeds %d bytes", maxRunBytes)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading benchmark output: %w", err)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("bench: no benchmark results in the input")
	}
	for key, s := range samples {
		m.Cells = append(m.Cells, summarize(key, s))
	}
	sort.Slice(m.Cells, func(i, j int) bool { return m.Cells[i].Key() < m.Cells[j].Key() })
	return m, nil
}

// setOnce stores a header's value; every package of one run prints the
// same goos, goarch and cpu, so a second, different value is an error.
func setOnce(field string, dst *string, line string) error {
	v := strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
	if *dst != "" && *dst != v {
		return fmt.Errorf("%s %q and %q in one run", field, *dst, v)
	}
	*dst = v
	return nil
}

// parseResult splits one result line into the benchmark name without its
// -P suffix, P (1 when Go printed no suffix) and the ns/op value. A line
// that starts with "Benchmark" but has no iteration count is not a result
// (a bare name before a failure, or a benchmark's own log output) and
// yields an empty name; a result line without a valid ns/op is an error.
func parseResult(line string) (name string, procs int, ns float64, err error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return "", 0, 0, nil
	}
	if n, err := strconv.ParseInt(f[1], 10, 64); err != nil || n <= 0 {
		return "", 0, 0, nil
	}
	name, procs = f[0], 1
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name, procs = name[:i], p
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		if f[i+1] != "ns/op" {
			continue
		}
		ns, err = strconv.ParseFloat(f[i], 64)
		if err != nil || ns < 0 || math.IsInf(ns, 0) || math.IsNaN(ns) {
			return "", 0, 0, fmt.Errorf("bad ns/op in %q", line)
		}
		return name, procs, ns, nil
	}
	return "", 0, 0, fmt.Errorf("no ns/op in %q", line)
}

// summarize turns one cell's samples into its median, quartiles and bound.
func summarize(key Cell, samples []float64) Cell {
	sort.Float64s(samples)
	c := key
	c.Samples = len(samples)
	c.Median = quantile(samples, 0.5)
	c.Q1 = quantile(samples, 0.25)
	c.Q3 = quantile(samples, 0.75)
	c.Bound = maxBound
	if c.Median > 0 {
		c.Bound = math.Min(maxBound, math.Max(minBound, spreadFactor*(c.Q3-c.Q1)/c.Median))
	}
	return c
}

// The bound a cell's median may move by before Compare reports a
// regression: spreadFactor times the capture's own relative spread
// (IQR/median), clamped to [minBound, maxBound]. The spread is only
// honest when a cell's samples are spread over the run, as
// `make bench-gate`'s passes are. minBound keeps a cell whose samples
// happened to agree closely from gating the host's drift; maxBound keeps
// a cell that was noisy at capture able to fail on a path that became
// twice as slow.
const (
	spreadFactor = 3
	minBound     = 0.3
	maxBound     = 0.9
)

// quantile interpolates linearly between the order statistics of sorted.
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// RenderSummary writes the human-readable table for a manifest.
func RenderSummary(w io.Writer, m *Manifest) error {
	var b strings.Builder
	fmt.Fprintf(&b, "dvf-bench %s  %s %s/%s  cpu=%q num_cpu=%d GOMAXPROCS=%d  rev=%s\n",
		m.Timestamp, m.GoVersion, m.GOOS, m.GOARCH, m.CPU, m.NumCPU, m.GOMAXPROCS, m.GitRev)
	fmt.Fprintf(&b, "%3s %14s %14s %14s %6s  %s\n", "n", "median ns/op", "q1", "q3", "bound", "cell")
	for _, c := range m.Cells {
		fmt.Fprintf(&b, "%3d %14.1f %14.1f %14.1f %5.0f%%  %s\n",
			c.Samples, c.Median, c.Q1, c.Q3, c.Bound*100, c.Key())
	}
	_, err := io.WriteString(w, b.String())
	return err
}
