// Package governor implements the OS-level idle-state selection policies
// (the software half of the C-state machinery) and the named platform
// configurations evaluated in the paper (Sec. 7.2: NT_Baseline, NT_No_C6,
// NT_No_C6,No_C1E, their Turbo variants, and the AgileWatts configs).
package governor

import (
	"errors"
	"fmt"

	"repro/internal/cstate"
	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// Governor selects an idle state when a core runs out of work. It learns
// from the actually observed idle durations, mirroring how the Linux
// menu governor predicts residency.
type Governor interface {
	// Select returns the C-state to enter at time now given the menu of
	// enabled idle states.
	Select(now sim.Time, menu []cstate.ID) cstate.ID
	// Observe records the actual duration of the idle period that just
	// ended, to refine future predictions.
	Observe(idle sim.Time)
	// Name identifies the policy.
	Name() string
	// Clone returns an independent copy carrying the learned state; the
	// catalog is immutable and shared.
	Clone() Governor
	// AppendState appends the learned state Clone copies, and
	// DecodeState loads it into a governor New built for the same
	// policy and catalog (errors go to d).
	AppendState(e *snapbuf.Encoder)
	DecodeState(d *snapbuf.Decoder)
}

// EWMA is the menu governor's prediction machinery, extracted so other
// layers can reuse it on their own signals: an exponentially weighted
// moving average over observations, corrected toward the most recent
// one when the pattern is irregular. The fleet control plane runs the
// identical estimator at cluster granularity — over per-epoch offered
// rates instead of per-core idle durations — so the predictive
// autoscaler and the per-core idle predictor share one set of dynamics
// (and one property suite for them).
type EWMA struct {
	// value is the running estimate; last the most recent observation.
	value, last float64
	// alpha is the EWMA weight of new observations.
	alpha float64
	// seeded reports whether any observation has arrived.
	seeded bool
}

// NewEWMA returns an estimator weighting each new observation by alpha.
func NewEWMA(alpha float64) *EWMA { return &EWMA{alpha: alpha} }

// Observe folds one observation into the running estimate.
func (e *EWMA) Observe(v float64) {
	if !e.seeded {
		e.value = v
		e.seeded = true
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.last = v
}

// Seeded reports whether any observation has arrived.
func (e *EWMA) Seeded() bool { return e.seeded }

// AppendState appends the estimate, the last observation and the
// seeded flag; alpha is construction input.
func (e *EWMA) AppendState(enc *snapbuf.Encoder) {
	enc.F64(e.value)
	enc.F64(e.last)
	enc.Bool(e.seeded)
}

// DecodeState loads what AppendState wrote.
func (e *EWMA) DecodeState(d *snapbuf.Decoder) {
	e.value, e.last, e.seeded = d.F64(), d.F64(), d.Bool()
}

// Value returns the running EWMA estimate (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// PredictLow returns the estimate biased toward the smaller of (EWMA,
// last observation): when the signal just dropped, trust the drop — the
// menu governor's bias, where under-predicting idle depth costs a
// little power but over-predicting costs wake latency.
func (e *EWMA) PredictLow() float64 {
	p := e.value
	if e.last < p {
		p = (e.last + e.value) / 2
	}
	return p
}

// PredictHigh is the mirror bias toward the larger of (EWMA, last):
// when the signal just rose, trust the rise. This is the capacity-
// planning direction — under-predicting offered load costs SLO
// violations, over-predicting only costs some idle watts — exactly the
// asymmetry PredictLow encodes for idle durations, reflected.
func (e *EWMA) PredictHigh() float64 {
	p := e.value
	if e.last > p {
		p = (e.last + e.value) / 2
	}
	return p
}

// MenuGovernor predicts the next idle duration with an exponentially
// weighted moving average over recent idle periods, corrected toward the
// most recent observation when the pattern is irregular — a simplified
// Linux menu governor. It then picks the deepest enabled state whose
// target residency fits the prediction.
type MenuGovernor struct {
	catalog *cstate.Catalog
	// pred is the idle-duration estimator (ns observations).
	pred EWMA
}

// NewMenuGovernor returns a menu-style governor over the catalog.
func NewMenuGovernor(c *cstate.Catalog) *MenuGovernor {
	return &MenuGovernor{catalog: c, pred: EWMA{alpha: 0.3}}
}

// Name implements Governor.
func (g *MenuGovernor) Name() string { return "menu" }

// Predict returns the current idle-duration prediction in ns. Before any
// observation, it predicts pessimistically short (pick shallow), which is
// what hardware does on cold start.
func (g *MenuGovernor) Predict() sim.Time {
	if !g.pred.Seeded() {
		return 0
	}
	// Bias toward the shorter of (ewma, last): under-predicting depth
	// costs a little power; over-predicting costs latency, which is what
	// latency-critical deployments tune against.
	return sim.Time(g.pred.PredictLow())
}

// Select implements Governor.
func (g *MenuGovernor) Select(now sim.Time, menu []cstate.ID) cstate.ID {
	id, _ := g.catalog.DeepestByResidency(menu, g.Predict())
	return id
}

// Observe implements Governor.
func (g *MenuGovernor) Observe(idle sim.Time) {
	g.pred.Observe(float64(idle))
}

// Clone implements Governor.
func (g *MenuGovernor) Clone() Governor {
	c := *g
	return &c
}

// AppendState implements Governor.
func (g *MenuGovernor) AppendState(e *snapbuf.Encoder) { g.pred.AppendState(e) }

// DecodeState implements Governor.
func (g *MenuGovernor) DecodeState(d *snapbuf.Decoder) { g.pred.DecodeState(d) }

// StaticGovernor always selects the deepest state in the menu, ignoring
// residency targets. It models "performance-tuned" BIOS setups that trust
// a single state, and is also useful for upper-bound analyses.
type StaticGovernor struct {
	catalog *cstate.Catalog
}

// NewStaticGovernor returns a deepest-state governor.
func NewStaticGovernor(c *cstate.Catalog) *StaticGovernor {
	return &StaticGovernor{catalog: c}
}

// Name implements Governor.
func (g *StaticGovernor) Name() string { return "static-deepest" }

// Select implements Governor.
func (g *StaticGovernor) Select(now sim.Time, menu []cstate.ID) cstate.ID {
	id, _ := g.catalog.DeepestByResidency(menu, sim.MaxTime)
	return id
}

// Observe implements Governor.
func (g *StaticGovernor) Observe(sim.Time) {}

// Clone implements Governor.
func (g *StaticGovernor) Clone() Governor {
	c := *g
	return &c
}

// AppendState implements Governor: the policy learns nothing.
func (g *StaticGovernor) AppendState(*snapbuf.Encoder) {}

// DecodeState implements Governor.
func (g *StaticGovernor) DecodeState(*snapbuf.Decoder) {}

// LadderGovernor starts shallow and deepens one step each time an idle
// period overruns the next state's target residency, resetting on a
// short idle — the classic ladder policy kept for ablation studies.
type LadderGovernor struct {
	catalog *cstate.Catalog
	rung    int
	last    sim.Time
}

// NewLadderGovernor returns a ladder policy over the catalog.
func NewLadderGovernor(c *cstate.Catalog) *LadderGovernor {
	return &LadderGovernor{catalog: c}
}

// Name implements Governor.
func (g *LadderGovernor) Name() string { return "ladder" }

// Select implements Governor.
func (g *LadderGovernor) Select(now sim.Time, menu []cstate.ID) cstate.ID {
	if len(menu) == 0 {
		return cstate.C0
	}
	ordered := orderShallowToDeep(g.catalog, menu)
	if g.rung >= len(ordered) {
		g.rung = len(ordered) - 1
	}
	return ordered[g.rung]
}

// Observe implements Governor.
func (g *LadderGovernor) Observe(idle sim.Time) {
	// Promote when the last idle comfortably exceeded twice the current
	// state's target; demote on a short idle.
	if idle > g.last*2 || idle > 100*sim.Microsecond {
		g.rung++
	} else if idle < 5*sim.Microsecond && g.rung > 0 {
		g.rung--
	}
	g.last = idle
}

// Clone implements Governor.
func (g *LadderGovernor) Clone() Governor {
	c := *g
	return &c
}

// AppendState implements Governor.
func (g *LadderGovernor) AppendState(e *snapbuf.Encoder) {
	e.I64(int64(g.rung))
	e.I64(int64(g.last))
}

// DecodeState implements Governor. A negative rung is corrupt (Select
// clamps only from above).
func (g *LadderGovernor) DecodeState(d *snapbuf.Decoder) {
	rung, last := d.I64(), sim.Time(d.I64())
	if d.Err() == nil && (rung < 0 || rung > int64(cstate.NumStates)) {
		d.Fail(errors.New("governor: corrupt ladder rung"))
		return
	}
	g.rung, g.last = int(rung), last
}

func orderShallowToDeep(c *cstate.Catalog, menu []cstate.ID) []cstate.ID {
	out := append([]cstate.ID(nil), menu...)
	// Insertion sort by descending power (shallowest = highest power).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && c.Params(out[j]).PowerWatts > c.Params(out[j-1]).PowerWatts; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Policy names accepted by New.
const (
	PolicyMenu   = "menu"
	PolicyStatic = "static-deepest"
	PolicyLadder = "ladder"
)

// New constructs a governor by policy name.
func New(policy string, c *cstate.Catalog) (Governor, error) {
	switch policy {
	case PolicyMenu:
		return NewMenuGovernor(c), nil
	case PolicyStatic:
		return NewStaticGovernor(c), nil
	case PolicyLadder:
		return NewLadderGovernor(c), nil
	case PolicyInterval:
		return NewIntervalGovernor(c), nil
	default:
		return nil, fmt.Errorf("governor: unknown policy %q", policy)
	}
}
