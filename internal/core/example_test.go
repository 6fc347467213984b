package core_test

import (
	"fmt"
	"log"

	"github.com/resilience-models/dvf/internal/core"
)

// ExampleAnalyzeKernel computes the DVF report of the vector-multiplication
// kernel on the paper's small verification cache.
func ExampleAnalyzeKernel() {
	kernel, err := core.NewKernel("VM")
	if err != nil {
		log.Fatal(err)
	}
	report, err := core.AnalyzeKernel(kernel, core.CacheSmall, core.NoECC)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range report.Structures {
		fmt.Printf("%s: N_ha=%.0f\n", s.Name, s.NHa)
	}
	// Output:
	// A: N_ha=1000
	// B: N_ha=500
	// C: N_ha=250
}

// ExampleAnalyzeSource evaluates a hand-written extended-Aspen model.
func ExampleAnalyzeSource() {
	ev, err := core.AnalyzeSource(`
model demo {
    param n = 4096
    machine {
        cache { assoc 4 sets 64 line 32 }
        memory { fit 5000 }
    }
    data A { size 8*n  pattern streaming(8, n, 1) }
    kernel main { flops 2*n }
}`)
	if err != nil {
		log.Fatal(err)
	}
	a, err := ev.Structure("A")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A: %d bytes, N_ha=%.0f\n", a.Bytes, a.NHa)
	// Output:
	// A: 32768 bytes, N_ha=1024
}

// ExampleVerifyKernel validates the analytical model against the cache
// simulator, the Figure 4 procedure.
func ExampleVerifyKernel() {
	kernel, err := core.NewKernel("VM")
	if err != nil {
		log.Fatal(err)
	}
	rows, err := core.VerifyKernel(kernel, core.CacheSmall)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rows {
		fmt.Printf("%s: model=%.0f simulated=%.0f\n", r.Structure, r.Model, r.Simulated)
	}
	// Output:
	// A: model=1000 simulated=1000
	// B: model=500 simulated=500
	// C: model=250 simulated=250
}

// ExampleSelectProtection picks the weakest Table VII mechanism meeting a
// DVF budget.
func ExampleSelectProtection() {
	// A structure with heavy exposure: 1 MB touched a million times over
	// a millisecond-scale run (unprotected DVF ~1.2e-5); the budget of
	// 5e-6 rules out bare DRAM but is within SECDED's reach.
	mech, point, err := core.SelectProtection(1e-3/3600, 1<<20, 1e6, 5e-6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at %.0f%% degradation\n", mech.Name, point.DegradationPct)
	// Output:
	// SECDED at 5% degradation
}
