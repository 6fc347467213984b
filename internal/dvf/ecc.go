package dvf

import (
	"fmt"
	"math"
)

// ECC describes a hardware memory-protection mechanism: the residual
// failure rate it achieves at full strength (Table VII) and the
// performance cost at which that strength is reached.
type ECC struct {
	Name string
	// Rate is the residual FIT when the mechanism is fully engaged.
	Rate FIT
	// SaturationPct is the performance degradation (percent) at which the
	// mechanism reaches its full correction strength. Below it, protection
	// is partial: error checking that is throttled, sampled, or applied to
	// only part of the address space corrects proportionally fewer errors.
	// 5% reproduces the minimum of the paper's Figure 7.
	SaturationPct float64
}

// Table VII mechanisms with the Figure 7 saturation point.
var (
	NoECC    = ECC{Name: "No ECC", Rate: FITNoECC, SaturationPct: 0}
	Chipkill = ECC{Name: "Chipkill correct", Rate: FITChipkill, SaturationPct: 5}
	SECDED   = ECC{Name: "SECDED", Rate: FITSECDED, SaturationPct: 5}
)

// TableVII returns the Table VII rows in the paper's order.
func TableVII() []ECC { return []ECC{NoECC, Chipkill, SECDED} }

// EffectiveFIT returns the failure rate at a given invested performance
// degradation. Protection strength interpolates geometrically from the
// unprotected rate to the mechanism's full-strength rate as the degradation
// approaches the saturation point; past saturation the rate stays at the
// floor (more slowdown buys no further correction — which is why Figure 7
// turns upward: the longer exposure time then dominates).
func (e ECC) EffectiveFIT(degradationPct float64) FIT {
	if e.SaturationPct <= 0 || degradationPct >= e.SaturationPct {
		return e.Rate
	}
	if degradationPct <= 0 {
		return FITNoECC
	}
	c := degradationPct / e.SaturationPct
	return FIT(math.Exp((1-c)*math.Log(float64(FITNoECC)) + c*math.Log(float64(e.Rate))))
}

// SweepPoint is one point of the Figure 7 trade-off curve.
type SweepPoint struct {
	DegradationPct float64
	EffectiveFIT   FIT
	ExecHours      float64
	DVF            float64
}

// Sweep evaluates DVF(delta) = FIT_eff(delta) * T*(1+delta) * S_d * N_ha
// over a range of performance degradations for a structure of sizeBytes
// with baseHours unprotected execution time and nha memory accesses.
func (e ECC) Sweep(baseHours float64, sizeBytes int64, nha float64, degradationsPct []float64) ([]SweepPoint, error) {
	if baseHours < 0 {
		return nil, fmt.Errorf("dvf: negative base execution time %g", baseHours)
	}
	points := make([]SweepPoint, 0, len(degradationsPct))
	for _, d := range degradationsPct {
		if d < 0 {
			return nil, fmt.Errorf("dvf: negative degradation %g%%", d)
		}
		rate := e.EffectiveFIT(d)
		hours := baseHours * (1 + d/100)
		points = append(points, SweepPoint{
			DegradationPct: d,
			EffectiveFIT:   rate,
			ExecHours:      hours,
			DVF:            ForStructure(rate, hours, sizeBytes, nha),
		})
	}
	return points, nil
}

// MinPoint returns the sweep point with the smallest DVF.
func MinPoint(points []SweepPoint) (SweepPoint, error) {
	if len(points) == 0 {
		return SweepPoint{}, fmt.Errorf("dvf: empty sweep")
	}
	best := points[0]
	for _, p := range points[1:] {
		if p.DVF < best.DVF {
			best = p
		}
	}
	return best, nil
}

// MeetsTarget reports whether a mechanism, at the given operating point,
// brings the structure's DVF at or below a pre-defined target — the
// "decide whether a specific resilience mechanism provides sufficient
// protection, given a pre-defined DVF target" scenario of Section III-A.
func MeetsTarget(p SweepPoint, target float64) bool {
	return p.DVF <= target
}
