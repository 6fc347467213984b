// Package dvf implements the data vulnerability factor of the paper's
// Section III-A, the resilience metric at the heart of this repository.
//
// Notation (Table I):
//
//	FIT      failure rate: failures per billion hours per Mbit
//	T        application execution time
//	S_d      size of the data structure
//	N_error  number of errors that could occur to the structure during the
//	         execution: N_error = FIT * T * S_d
//	N_ha     number of accesses to the hardware (main memory) caused by
//	         accesses to the structure
//	DVF_d    DVF for a data structure: N_error * N_ha          (Equation 1)
//	DVF_a    DVF for an application: sum of its structures'    (Equation 2)
//
// A larger DVF means a more vulnerable structure: more standing errors and
// more opportunities for a corrupted value to reach the computation.
package dvf

import (
	"fmt"
	"sort"
	"strings"
)

// FIT is a memory failure rate in failures per billion (1e9) device-hours
// per Mbit, the unit of Table VII.
type FIT float64

// The measured DRAM failure rates of Table VII.
const (
	// FITNoECC is the raw DRAM failure rate with no protection.
	FITNoECC FIT = 5000
	// FITChipkill is the residual rate under chipkill-correct ECC.
	FITChipkill FIT = 0.02
	// FITSECDED is the residual rate under SECDED ECC.
	FITSECDED FIT = 1300
)

// NError returns N_error = FIT * T * S_d: the expected number of raw errors
// striking a structure of sizeBytes during execHours of execution.
// FIT's denominator units (1e9 hours, Mbit) are normalized here.
func NError(rate FIT, execHours float64, sizeBytes int64) float64 {
	sizeMbit := float64(sizeBytes) * 8 / 1e6
	return float64(rate) / 1e9 * execHours * sizeMbit
}

// ForStructure returns DVF_d = N_error * N_ha (Equation 1).
func ForStructure(rate FIT, execHours float64, sizeBytes int64, nha float64) float64 {
	return NError(rate, execHours, sizeBytes) * nha
}

// StructureDVF is one structure's contribution to an application's DVF.
type StructureDVF struct {
	Name   string
	Bytes  int64   // S_d
	NHa    float64 // estimated main-memory accesses
	NError float64
	DVF    float64
}

// Application aggregates per-structure DVFs into DVF_a (Equation 2).
type Application struct {
	Kernel     string
	ExecHours  float64
	Rate       FIT
	Structures []StructureDVF
}

// Total returns DVF_a, the sum over the major data structures.
func (a *Application) Total() float64 {
	var sum float64
	for _, s := range a.Structures {
		sum += s.DVF
	}
	return sum
}

// Structure returns the named entry.
func (a *Application) Structure(name string) (StructureDVF, error) {
	for _, s := range a.Structures {
		if s.Name == name {
			return s, nil
		}
	}
	return StructureDVF{}, fmt.Errorf("dvf: %s has no structure %q", a.Kernel, name)
}

// NewApplication computes per-structure and application DVFs from the raw
// ingredients. names, sizes and nhas run parallel.
func NewApplication(kernel string, rate FIT, execHours float64, names []string, sizes []int64, nhas []float64) (*Application, error) {
	if len(names) != len(sizes) || len(names) != len(nhas) {
		return nil, fmt.Errorf("dvf: mismatched inputs: %d names, %d sizes, %d nhas",
			len(names), len(sizes), len(nhas))
	}
	if execHours < 0 {
		return nil, fmt.Errorf("dvf: negative execution time %g", execHours)
	}
	app := &Application{Kernel: kernel, ExecHours: execHours, Rate: rate}
	for i, name := range names {
		ne := NError(rate, execHours, sizes[i])
		app.Structures = append(app.Structures, StructureDVF{
			Name:   name,
			Bytes:  sizes[i],
			NHa:    nhas[i],
			NError: ne,
			DVF:    ne * nhas[i],
		})
	}
	return app, nil
}

// Render formats the application report, most vulnerable structure first.
func (a *Application) Render() string {
	rows := make([]StructureDVF, len(a.Structures))
	copy(rows, a.Structures)
	sort.Slice(rows, func(i, j int) bool { return rows[i].DVF > rows[j].DVF })
	var b strings.Builder
	fmt.Fprintf(&b, "DVF report for %s (FIT=%g, T=%.3e h)\n", a.Kernel, float64(a.Rate), a.ExecHours)
	fmt.Fprintf(&b, "%-8s %12s %14s %14s %14s\n", "struct", "bytes", "N_ha", "N_error", "DVF")
	for _, s := range rows {
		fmt.Fprintf(&b, "%-8s %12d %14.4g %14.4g %14.4g\n", s.Name, s.Bytes, s.NHa, s.NError, s.DVF)
	}
	fmt.Fprintf(&b, "%-8s %12d %14s %14s %14.4g\n", "DVF_a", int64(0), "", "", a.Total())
	return b.String()
}
