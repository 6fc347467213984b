// Command dvf-repro runs the complete reproduction in one shot and prints
// a pass/fail report for every quantitative claim of the paper that this
// repository reproduces:
//
//	Figure 4  — model-vs-simulator error within 15% for every structure
//	Figure 5  — the qualitative DVF-profiling claims (per-structure and
//	            cross-kernel orderings, the FT capacity jump)
//	Figure 6  — the CG/PCG crossover
//	Figure 7  — the 5%-degradation ECC minimum
//	Stores    — writeback models within 15% (this repo's extension)
//	Baseline  — fault injection agrees on MC and costs orders more
//
// Exit status is non-zero when any check fails, so the command slots into
// CI as the reproduction gate.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/dvf"
	"github.com/resilience-models/dvf/internal/experiments"
	"github.com/resilience-models/dvf/internal/kernels"
	"github.com/resilience-models/dvf/internal/obs"
)

type check struct {
	name string
	fn   func(env experiments.Env) (string, error)
}

func main() {
	o := obs.AddFlags(nil)
	flag.Parse()
	stop := o.Start()
	checks := []check{
		{"Figure 4: model error <= 15% on every structure", checkFig4},
		{"Figure 5: profiling orderings and the FT jump", checkFig5},
		{"Figure 6: CG/PCG crossover", checkFig6},
		{"Figure 7: ECC minimum at 5% degradation", checkFig7},
		{"Stores: writeback models <= 15%", checkStores},
		{"Baseline: injection agreement and cost", checkBaseline},
	}
	env := experiments.Env{Metrics: o.Sink(), Tracer: o.Tracer()}
	failed := 0
	for _, c := range checks {
		start := time.Now()
		detail, err := c.fn(env)
		status := "PASS"
		if err != nil {
			status = "FAIL"
			detail = err.Error()
			failed++
		}
		fmt.Printf("[%s] %-50s %6.2fs  %s\n", status, c.name, time.Since(start).Seconds(), detail)
	}
	stop()
	if failed > 0 {
		fmt.Printf("\n%d of %d reproduction checks failed\n", failed, len(checks))
		os.Exit(1)
	}
	fmt.Printf("\nall %d reproduction checks passed\n", len(checks))
}

func checkFig4(env experiments.Env) (string, error) {
	res, err := experiments.RunFig4(env)
	if err != nil {
		return "", err
	}
	for _, r := range res.Rows {
		if e := math.Abs(r.ErrorPct()); e > 15 {
			return "", fmt.Errorf("%s/%s on %s: %.1f%% error", r.Kernel, r.Structure, r.Cache, e)
		}
	}
	return fmt.Sprintf("max |error| %.1f%% over %d structure/cache cells",
		res.MaxAbsErrorPct(), len(res.Rows)), nil
}

func checkFig5(env experiments.Env) (string, error) {
	res, err := experiments.RunFig5(env)
	if err != nil {
		return "", err
	}
	get := func(kernel, cacheName, structure string) (float64, error) {
		return res.Lookup(kernel, cacheName, structure)
	}
	for _, cfg := range cache.ProfilingConfigs() {
		a, err := get("VM", cfg.Name, "A")
		if err != nil {
			return "", err
		}
		b, _ := get("VM", cfg.Name, "B")
		c, _ := get("VM", cfg.Name, "C")
		if !(a > b && b > c) {
			return "", fmt.Errorf("VM ordering broken on %s", cfg.Name)
		}
		cg, _ := get("CG", cfg.Name, "DVF_a")
		ft, _ := get("FT", cfg.Name, "DVF_a")
		if cg < 100*ft {
			return "", fmt.Errorf("CG not >> FT on %s", cfg.Name)
		}
		mc, _ := get("MC", cfg.Name, "DVF_a")
		nb, _ := get("NB", cfg.Name, "DVF_a")
		if mc < 2*nb {
			return "", fmt.Errorf("MC not >> NB on %s", cfg.Name)
		}
	}
	ft16, _ := get("FT", cache.Profile16KB.Name, "DVF_a")
	ft128, _ := get("FT", cache.Profile128KB.Name, "DVF_a")
	if ft16 < 10*ft128 {
		return "", fmt.Errorf("FT capacity jump missing")
	}
	return fmt.Sprintf("FT jump %.0fx below its working set", ft16/ft128), nil
}

func checkFig6(env experiments.Env) (string, error) {
	res, err := experiments.RunFig6(env)
	if err != nil {
		return "", err
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if first.PCGDVF <= first.CGDVF {
		return "", fmt.Errorf("PCG not worse at n=%d", first.N)
	}
	if last.PCGDVF >= last.CGDVF {
		return "", fmt.Errorf("PCG not better at n=%d", last.N)
	}
	x := res.CrossoverSize()
	if x == 0 {
		return "", fmt.Errorf("no crossover")
	}
	return fmt.Sprintf("crossover at n=%d", x), nil
}

func checkFig7(env experiments.Env) (string, error) {
	res, err := experiments.RunFig7(env)
	if err != nil {
		return "", err
	}
	for _, s := range res.Series {
		best, err := dvf.MinPoint(s.Points)
		if err != nil {
			return "", err
		}
		if best.DegradationPct != 5 {
			return "", fmt.Errorf("%s minimum at %.0f%%", s.Mechanism.Name, best.DegradationPct)
		}
	}
	return "both mechanisms minimize DVF at 5%", nil
}

func checkStores(experiments.Env) (string, error) {
	var worst float64
	cells := 0
	for _, k := range experiments.StoreModelers() {
		for _, cfg := range cache.VerificationConfigs() {
			rows, err := experiments.VerifyStores(k, cfg)
			if err != nil {
				return "", err
			}
			for _, r := range rows {
				cells++
				if e := math.Abs(r.ErrorPct()); e > 15 {
					return "", fmt.Errorf("%s/%s on %s: %.1f%% writeback error",
						r.Kernel, r.Structure, r.Cache, e)
				} else if e > worst {
					worst = e
				}
			}
		}
	}
	return fmt.Sprintf("max |error| %.1f%% over %d cells", worst, cells), nil
}

func checkBaseline(experiments.Env) (string, error) {
	cmp, err := experiments.RunBaseline(kernels.NewMC(3000), 40, cache.Large)
	if err != nil {
		return "", err
	}
	if cmp.RankRho != 1 {
		return "", fmt.Errorf("MC injection ranking disagrees (rho %.2f)", cmp.RankRho)
	}
	if cmp.CostRatio() < 3 {
		return "", fmt.Errorf("injection only %.0fx the model cost", cmp.CostRatio())
	}
	return fmt.Sprintf("rho 1.00 on MC; injection %.0fx the model cost", cmp.CostRatio()), nil
}
