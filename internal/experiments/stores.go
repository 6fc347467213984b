package experiments

import (
	"fmt"

	"github.com/resilience-models/dvf/internal/cache"
	"github.com/resilience-models/dvf/internal/kernels"
)

// StoreRow compares a structure's modeled writebacks against the simulator
// — the write half of the paper's "misses and writebacks" accounting.
type StoreRow struct {
	Kernel    string
	Cache     string
	Structure string
	Model     float64
	Simulated float64
}

// ErrorPct returns the signed relative model error in percent. Rows where
// both sides are tiny (read-only structures) report zero.
func (r StoreRow) ErrorPct() float64 {
	if r.Simulated < 1 {
		if r.Model < 1 {
			return 0
		}
		return 100
	}
	return (r.Model - r.Simulated) / r.Simulated * 100
}

// VerifyStores traces one store-modeling kernel through the simulator and
// compares per-structure writeback counts.
func VerifyStores(k kernels.StoreModeler, cfg cache.Config) ([]StoreRow, error) {
	sim, err := cache.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	info, err := replay(sim, k.Run)
	if err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", k.Name(), err)
	}
	specs, err := k.StoreModels(info)
	if err != nil {
		return nil, err
	}
	rows := make([]StoreRow, 0, len(specs))
	for _, spec := range specs {
		st, err := info.Structure(spec.Structure)
		if err != nil {
			return nil, err
		}
		model, err := spec.Estimate.Writebacks(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s stores: %w", k.Name(), spec.Structure, err)
		}
		rows = append(rows, StoreRow{
			Kernel:    k.Name(),
			Cache:     cfg.Name,
			Structure: spec.Structure,
			Model:     model,
			Simulated: float64(sim.StructStats(cache.StructID(st.ID)).Writebacks),
		})
	}
	return rows, nil
}

// StoreModelers returns the verification-size kernels with store models.
func StoreModelers() []kernels.StoreModeler {
	return []kernels.StoreModeler{
		kernels.NewVM(1000),
		kernels.NewMG(32, 1),
		kernels.NewFT(2048),
	}
}
