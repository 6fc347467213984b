package dvf_test

import (
	"fmt"
	"log"

	"github.com/resilience-models/dvf/internal/dvf"
)

// ExampleForStructure computes Equation 1 for a 1 Mbit structure exposed
// for a millionth of the FIT reference period.
func ExampleForStructure() {
	// 5000 FIT/Mbit * 1000 hours * 1 Mbit * 100 accesses.
	d := dvf.ForStructure(dvf.FITNoECC, 1000, 125000, 100)
	fmt.Printf("DVF_d = %.4g\n", d)
	// Output:
	// DVF_d = 0.5
}

// ExampleNewApplication aggregates per-structure DVFs into DVF_a.
func ExampleNewApplication() {
	app, err := dvf.NewApplication("demo", dvf.FITNoECC, 1e-3,
		[]string{"matrix", "vector"},
		[]int64{1 << 20, 1 << 12},
		[]float64{50000, 200})
	if err != nil {
		log.Fatal(err)
	}
	m, _ := app.Structure("matrix")
	v, _ := app.Structure("vector")
	fmt.Printf("matrix/vector vulnerability ratio: %.0f\n", m.DVF/v.DVF)
	fmt.Printf("DVF_a equals the sum: %v\n", app.Total() == m.DVF+v.DVF)
	// Output:
	// matrix/vector vulnerability ratio: 64000
	// DVF_a equals the sum: true
}

// ExampleECC_Sweep traces the Figure 7 trade-off for SECDED.
func ExampleECC_Sweep() {
	points, err := dvf.SECDED.Sweep(1e-5, 1<<20, 1e6, []float64{0, 5, 30})
	if err != nil {
		log.Fatal(err)
	}
	best, err := dvf.MinPoint(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimum DVF at %.0f%% degradation\n", best.DegradationPct)
	fmt.Printf("0%% vs 30%%: protection still wins: %v\n", points[2].DVF < points[0].DVF)
	// Output:
	// minimum DVF at 5% degradation
	// 0% vs 30%: protection still wins: true
}
