package experiments

import (
	"math"
	"testing"

	"github.com/resilience-models/dvf/internal/cache"
)

// TestStoreModelsWithin15Percent extends the Figure 4 verification to the
// write side: modeled writebacks track the simulator within the paper's
// load-side bound for the kernels with uniform write patterns.
func TestStoreModelsWithin15Percent(t *testing.T) {
	for _, k := range StoreModelers() {
		for _, cfg := range cache.VerificationConfigs() {
			rows, err := VerifyStores(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if e := math.Abs(r.ErrorPct()); e > 15 {
					t.Errorf("%s/%s on %s: writeback error %.1f%% (model %.0f, sim %.0f)",
						r.Kernel, r.Structure, r.Cache, e, r.Model, r.Simulated)
				}
			}
		}
	}
}

func TestStoreReadOnlyStructuresZero(t *testing.T) {
	vm := StoreModelers()[0]
	rows, err := VerifyStores(vm, cache.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Structure == "A" || r.Structure == "B" {
			if r.Model != 0 || r.Simulated != 0 {
				t.Errorf("read-only %s: model %g sim %g, want 0/0", r.Structure, r.Model, r.Simulated)
			}
		}
	}
}

func TestStoreResidentWorkingSetZero(t *testing.T) {
	// On the 4MB cache everything stays resident: no writebacks at all.
	for _, k := range StoreModelers() {
		rows, err := VerifyStores(k, cache.Large)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Model != 0 || r.Simulated != 0 {
				t.Errorf("%s/%s on large cache: model %g sim %g, want 0/0",
					r.Kernel, r.Structure, r.Model, r.Simulated)
			}
		}
	}
}

func TestStoreRowErrorPct(t *testing.T) {
	if (StoreRow{Model: 0.5, Simulated: 0.2}).ErrorPct() != 0 {
		t.Error("sub-unit counts should compare as zero")
	}
	if (StoreRow{Model: 50, Simulated: 0}).ErrorPct() != 100 {
		t.Error("spurious model writebacks should report 100%")
	}
	if (StoreRow{Model: 110, Simulated: 100}).ErrorPct() != 10 {
		t.Error("plain relative error wrong")
	}
}
