// Package snoop analyzes the impact of cache-coherence traffic on
// AgileWatts' power savings (paper Sec. 7.5): a core resident in C6A must
// wake its cache domain to serve snoops, eroding part of the C1->C6A
// saving. The analysis bounds the erosion between the no-snoop and
// snoop-saturated extremes.
package snoop

import (
	"fmt"

	"repro/internal/cstate"
)

// Analysis holds the Sec. 7.5 bounding computation for a 100 % idle core
// that has only C1 (baseline) or C6A (AW) enabled.
type Analysis struct {
	// Idle power of each state with no snoop traffic (Table 1).
	C1IdleW, C6AIdleW float64
	// Power while continuously servicing snoops (Sec. 7.5: C1 + ~50 mW,
	// C6A + ~120 mW).
	C1SnoopW, C6ASnoopW float64
}

// FromCatalog builds the analysis from catalog parameters.
func FromCatalog(c *cstate.Catalog) Analysis {
	return Analysis{
		C1IdleW:   c.Params(cstate.C1).PowerWatts,
		C6AIdleW:  c.Params(cstate.C6A).PowerWatts,
		C1SnoopW:  c.Params(cstate.C1).SnoopPowerWatts,
		C6ASnoopW: c.Params(cstate.C6A).SnoopPowerWatts,
	}
}

// SavingsNoSnoops returns AW's power saving for a fully idle core with no
// snoop traffic (paper: (1.44-0.3)/1.44 = 79 %).
func (a Analysis) SavingsNoSnoops() float64 {
	if a.C1IdleW <= 0 {
		return 0
	}
	return (a.C1IdleW - a.C6AIdleW) / a.C1IdleW * 100
}

// SavingsAtDuty interpolates the saving at a snoop duty cycle in [0,1]
// (fraction of idle time the cache domain is servicing snoops). At duty 1
// the core services snoops continuously (paper: (1.49-0.47)/1.49 = 68 %).
func (a Analysis) SavingsAtDuty(duty float64) float64 {
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	c1 := a.C1IdleW*(1-duty) + a.C1SnoopW*duty
	c6a := a.C6AIdleW*(1-duty) + a.C6ASnoopW*duty
	if c1 <= 0 {
		return 0
	}
	return (c1 - c6a) / c1 * 100
}

// Row is one output line of the snoop-impact sweep.
type Row struct {
	Duty            float64
	SavingsPercent  float64
	C1EffectiveW    float64
	C6AEffectiveW   float64
	LossVsNoSnoopPP float64
}

// Sweep evaluates savings across duty cycles. LossVsNoSnoopPP at duty 1
// is the worst-case savings opportunity lost to snoop traffic (paper:
// ~11 percentage points).
func (a Analysis) Sweep(duties []float64) []Row {
	base := a.SavingsNoSnoops()
	out := make([]Row, 0, len(duties))
	for _, d := range duties {
		if d < 0 || d > 1 {
			panic(fmt.Sprintf("snoop: duty %v out of range", d))
		}
		s := a.SavingsAtDuty(d)
		out = append(out, Row{
			Duty:            d,
			SavingsPercent:  s,
			C1EffectiveW:    a.C1IdleW*(1-d) + a.C1SnoopW*d,
			C6AEffectiveW:   a.C6AIdleW*(1-d) + a.C6ASnoopW*d,
			LossVsNoSnoopPP: base - s,
		})
	}
	return out
}
