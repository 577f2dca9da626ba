// Package power implements the paper's analytical CPU-core power models:
// the motivation upper bound (Eq. 1), the residency-weighted average
// power of the baseline and AgileWatts state sets (Eqs. 2-3), the
// Turbo-enabled savings model (Eq. 4), and the model-validation
// methodology of Sec. 6.3.
package power

import (
	"fmt"

	"repro/internal/cstate"
)

// Residencies holds per-C-state residency fractions indexed by
// cstate.ID. Fractions over the states in use must sum to ~1.
type Residencies [cstate.NumStates]float64

// Sum returns the total residency (should be ~1 for a complete vector).
func (r Residencies) Sum() float64 {
	s := 0.0
	for _, v := range r {
		s += v
	}
	return s
}

// Validate checks the vector is a distribution.
func (r Residencies) Validate() error {
	for i, v := range r {
		if v < -1e-9 || v > 1+1e-9 {
			return fmt.Errorf("power: residency %v = %v out of range", cstate.ID(i), v)
		}
	}
	if s := r.Sum(); s < 0.999 || s > 1.001 {
		return fmt.Errorf("power: residencies sum to %v, want 1", s)
	}
	return nil
}

// Vector is per-C-state core power in watts indexed by cstate.ID.
type Vector [cstate.NumStates]float64

// VectorFromCatalog extracts the resident-power vector from a catalog.
func VectorFromCatalog(c *cstate.Catalog) Vector {
	return Vector(c.PowerVector())
}

// AvgPower computes Eq. 2 / Eq. 3: the residency-weighted average core
// power. It works for both the baseline state set {C0, C1, C1E, C6} and
// the AW set {C0, C6A, C6AE, C6} — whichever states carry nonzero
// residency.
func AvgPower(r Residencies, p Vector) float64 {
	avg := 0.0
	for i := range r {
		avg += r[i] * p[i]
	}
	return avg
}

// MotivationSavings computes Eq. 1: the upper-bound average-power saving
// from an ideal deep idle state with C1's latency and C6's power, for a
// workload spending rc0/rc1/rc6 of its time in C0/C1/C6.
// It returns the percentage reduction of baseline average power.
func MotivationSavings(rc0, rc1, rc6 float64, p Vector) float64 {
	baseline := rc0*p[cstate.C0] + rc1*p[cstate.C1] + rc6*p[cstate.C6]
	if baseline <= 0 {
		return 0
	}
	savings := rc1 * (p[cstate.C1] - p[cstate.C6])
	return savings / baseline * 100
}

// TurboSavings computes Eq. 4: with Turbo enabled, AW's average power
// saving replaces C1/C1E residency power with C6A/C6AE power, relative
// to the measured baseline average power (which already includes Turbo's
// C0 power variation). It returns the percentage reduction.
func TurboSavings(rc1, rc1e, avgBaseline float64, p Vector) float64 {
	if avgBaseline <= 0 {
		return 0
	}
	savings := rc1*(p[cstate.C1]-p[cstate.C6A]) + rc1e*(p[cstate.C1E]-p[cstate.C6AE])
	return savings / avgBaseline * 100
}
