// Package turbo models the frequency side of the evaluation: the P-state
// operating points of the Xeon Silver 4114 (base 2.2 GHz, minimum
// 0.8 GHz, Turbo Boost 3.0 GHz), the workload frequency-scalability
// performance model (Sec. 6.2 footnote 8, Fig. 8(d)), and the
// thermal-capacitance mechanism by which lower idle power buys longer
// Turbo residency (Sec. 7.3).
package turbo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/snapbuf"
)

// FreqPlan holds the platform's frequency points in Hz.
type FreqPlan struct {
	BaseHz  float64 // P1
	MinHz   float64 // Pn
	TurboHz float64 // maximum Turbo Boost
}

// Xeon4114 returns the paper's evaluation platform frequencies.
func Xeon4114() FreqPlan {
	return FreqPlan{BaseHz: 2.2e9, MinHz: 0.8e9, TurboHz: 3.0e9}
}

// Validate checks ordering.
func (f FreqPlan) Validate() error {
	if !(f.MinHz > 0 && f.MinHz <= f.BaseHz && f.BaseHz <= f.TurboHz) {
		return fmt.Errorf("turbo: invalid frequency plan %+v", f)
	}
	return nil
}

// Speedup returns the performance ratio of running at freq f vs the
// reference fRef for a workload with the given frequency scalability s:
// perf(f)/perf(fRef) = 1 + s*(f/fRef - 1). s = 1 means fully
// frequency-bound; s = 0 means frequency-insensitive (e.g. memory- or
// network-bound phases).
func Speedup(s, fRef, f float64) float64 {
	if fRef <= 0 {
		return 1
	}
	sp := 1 + s*(f/fRef-1)
	if sp <= 0 {
		return 1e-6
	}
	return sp
}

// ScalabilityPercent computes the Fig. 8(d) metric: the relative
// performance gain when moving from f1 to f2, as a percentage of the
// relative frequency gain — i.e. the measured scalability.
func ScalabilityPercent(perf1, perf2, f1, f2 float64) float64 {
	if perf1 <= 0 || f1 <= 0 || f2 == f1 {
		return 0
	}
	return ((perf2 - perf1) / perf1) / ((f2 - f1) / f1) * 100
}

// Budget models the package thermal capacitance that funds Turbo Boost:
// when package power sits below the sustained (TDP-like) limit, thermal
// headroom accumulates; Turbo drains it. This captures the Sec. 7.3
// observation that a low-power idle state (C1E or C6A/C6AE) "recharges"
// Turbo, while parking idle cores in high-power C1 starves it.
type Budget struct {
	// SustainedW is the package power sustainable indefinitely.
	SustainedW float64
	// CapacityJ is the maximum stored headroom (thermal capacitance).
	CapacityJ float64
	// ChargeEfficiency scales how fast under-TDP operation converts to
	// usable headroom.
	ChargeEfficiency float64

	storedJ float64
	lastNS  int64
}

// NewBudget returns a budget for the paper's 2-socket 10-core platform,
// starting fully charged at time 0.
func NewBudget(sustainedW, capacityJ float64) *Budget {
	return &Budget{
		SustainedW:       sustainedW,
		CapacityJ:        capacityJ,
		ChargeEfficiency: 1.0,
		storedJ:          capacityJ,
	}
}

// Update advances the integrator to now (ns) with the package power that
// was drawn since the last update.
func (b *Budget) Update(nowNS int64, packageW float64) {
	if nowNS <= b.lastNS {
		if nowNS == b.lastNS {
			// Power-change chains within one event instant integrate
			// nothing; skip the FP work.
			return
		}
		panic("turbo: budget time went backwards")
	}
	dt := float64(nowNS-b.lastNS) / 1e9
	delta := (b.SustainedW - packageW) * dt
	if delta > 0 {
		delta *= b.ChargeEfficiency
	}
	b.storedJ += delta
	if b.storedJ > b.CapacityJ {
		b.storedJ = b.CapacityJ
	}
	if b.storedJ < 0 {
		b.storedJ = 0
	}
	b.lastNS = nowNS
}

// AppendState appends the stored headroom and the integrator's time
// mark; the sustained power, capacity and charge efficiency are
// construction input.
func (b *Budget) AppendState(e *snapbuf.Encoder) {
	e.F64(b.storedJ)
	e.I64(b.lastNS)
}

// DecodeState loads what AppendState wrote, rejecting a time mark past
// nowNS (the owner's clock), where the next Update would run backwards.
func (b *Budget) DecodeState(d *snapbuf.Decoder, nowNS int64) {
	stored, last := d.F64(), d.I64()
	if d.Err() == nil && last > nowNS {
		d.Fail(errors.New("turbo: corrupt budget time mark"))
		return
	}
	b.storedJ, b.lastNS = stored, last
}

// Stored returns the current headroom in joules.
func (b *Budget) Stored() float64 { return b.storedJ }

// BoostAllowed reports whether Turbo frequency may be used right now.
func (b *Budget) BoostAllowed() bool { return b.storedJ > 0 }

// CorePower interpolates per-core C0 power between the Pn and Turbo
// frequency points. Calibrated so that P(0.8 GHz) = 1 W and
// P(2.2 GHz) = 4 W (Table 1); power grows superlinearly with frequency
// because voltage rises alongside (P ~ f*V^2).
type CorePower struct {
	Plan FreqPlan
	// PnW and P1W anchor the curve (Table 1 C0 rows).
	PnW, P1W float64
	// Exponent of the f^k interpolation (empirically ~1.37 matches the
	// two anchors on SKX; Turbo extrapolates on the same curve).
	Exponent float64
}

// NewCorePower returns the Table 1-calibrated active power curve.
func NewCorePower(plan FreqPlan) *CorePower {
	// Solve 4 = 1 * (2.2/0.8)^k  =>  k = ln(4)/ln(2.75) ≈ 1.37.
	return &CorePower{Plan: plan, PnW: 1.0, P1W: 4.0, Exponent: 1.3708}
}

// AtFreq returns per-core C0 power at frequency f (Hz).
func (cp *CorePower) AtFreq(f float64) float64 {
	if f <= 0 {
		return 0
	}
	ratio := f / cp.Plan.MinHz
	return cp.PnW * math.Pow(ratio, cp.Exponent)
}
