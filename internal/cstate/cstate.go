// Package cstate models the CPU core idle-state (C-state) architecture of
// an Intel Skylake server (SKX) core, extended with AgileWatts' new C6A
// and C6AE states (paper Table 1 and Table 2).
//
// A C-state is described by its per-core power, its worst-case
// software+hardware transition time (the value the OS idle driver uses),
// its target residency, and its hardware entry/exit latencies. The package
// also records the state of each core component (clocks, ADPLL, caches,
// voltage, context) in every C-state, which drives both documentation
// tables and the microarchitectural model in internal/core.
package cstate

import (
	"fmt"

	"repro/internal/sim"
)

// ID identifies a core C-state. The order is shallow-to-deep by power,
// which the governor relies on when picking the deepest admissible state.
type ID int

// Core C-states of the Skylake server core plus AgileWatts' additions.
const (
	C0   ID = iota // active
	C1             // clock-gated, context maintained
	C6A            // AgileWatts: power-gated in place at P1 voltage
	C1E            // clock-gated at minimum voltage/frequency (Pn)
	C6AE           // AgileWatts: power-gated in place at Pn voltage
	C6             // deepest legacy state: flushed, voltage shut off
	NumStates
)

var idNames = [NumStates]string{"C0", "C1", "C6A", "C1E", "C6AE", "C6"}

// String returns the architectural name of the state.
func (id ID) String() string {
	if id < 0 || id >= NumStates {
		return fmt.Sprintf("C?(%d)", int(id))
	}
	return idNames[id]
}

// PState is the frequency/voltage operating point associated with a
// C-state's entry flow.
type PState int

const (
	// P1 is the base frequency operating point (2.2 GHz on the paper's
	// Xeon Silver 4114).
	P1 PState = iota
	// Pn is the minimum frequency operating point (0.8 GHz).
	Pn
)

// String returns "P1" or "Pn".
func (p PState) String() string {
	if p == P1 {
		return "P1"
	}
	return "Pn"
}

// Params describes one C-state (one row of Table 1, augmented with the
// hardware-level latencies from Sec. 3 and Sec. 5.2 that the simulator
// needs).
type Params struct {
	ID   ID
	Name string

	// PowerWatts is the per-core power while resident (Table 1).
	PowerWatts float64

	// SnoopPowerWatts is the per-core power while the state is servicing
	// snoop traffic (Sec. 7.5): C1 + ~50 mW, C6A + ~120 mW.
	SnoopPowerWatts float64

	// TransitionTime is the worst-case software+hardware entry+exit
	// latency to the first executed instruction — the value exposed to
	// the OS idle driver (Table 1, footnote 2).
	TransitionTime sim.Time

	// TargetResidency is the minimum predicted idle time for which the
	// governor will choose this state (Table 1).
	TargetResidency sim.Time

	// HWEntryLatency is the hardware entry flow duration during which the
	// core cannot respond (Sec. 3: ~87 us for C6; Sec. 5.2: <20 ns C6A).
	HWEntryLatency sim.Time

	// HWExitLatency is the hardware wake-up (interrupt to resumed
	// execution) duration (Sec. 3: ~30 us for C6; Sec. 5.2: <80 ns C6A).
	HWExitLatency sim.Time

	// PStateOnEntry is the frequency point the entry flow transitions to
	// (Pn for C1E/C6AE, P1 otherwise).
	PStateOnEntry PState

	// AgileWatts reports whether this state is one of the paper's new
	// states (C6A/C6AE).
	AgileWatts bool
}

// WakeupPenalty is the latency added to the first request that finds the
// core in this state, as used by the server model. It equals the OS-level
// transition time for legacy states; C-state C0 has none.
func (p Params) WakeupPenalty() sim.Time {
	if p.ID == C0 {
		return 0
	}
	return p.TransitionTime
}

// Catalog holds the parameters of every C-state plus the active-power
// levels of C0 at both frequency points.
type Catalog struct {
	params [NumStates]Params

	// C0PowerP1 and C0PowerPn are the active-state power levels at base
	// and minimum frequency (Table 1: ~4 W and ~1 W).
	C0PowerP1 float64
	C0PowerPn float64
}

// Skylake returns the paper's calibrated catalog: the four legacy SKX
// states (Table 1) plus AgileWatts' C6A and C6AE.
//
// Latency derivation:
//   - C6 hardware entry ≈ 87 us (L1/L2 flush ≈ 75 us at 800 MHz with 50 %
//     dirty lines, save-to-SRAM ≈ 9 us, control ≈ 3 us) and exit ≈ 30 us
//     (10 us wake-up hardware + 20 us state/microcode restore), Sec. 3.
//     The OS-visible worst case is 133 us (Table 1).
//   - C6A/C6AE hardware entry < 20 ns and exit < 80 ns (Sec. 5.2); their
//     OS-visible transition time matches C1/C1E because the software path
//     (MWAIT wake, scheduler) dominates — which is why Table 1 lists the
//     same 2 us / 10 us values.
func Skylake() *Catalog {
	c := &Catalog{C0PowerP1: 4.0, C0PowerPn: 1.0}
	c.params[C0] = Params{
		ID: C0, Name: "C0", PowerWatts: 4.0, SnoopPowerWatts: 4.0,
		PStateOnEntry: P1,
	}
	c.params[C1] = Params{
		ID: C1, Name: "C1", PowerWatts: 1.44, SnoopPowerWatts: 1.49,
		TransitionTime:  2 * sim.Microsecond,
		TargetResidency: 2 * sim.Microsecond,
		HWEntryLatency:  20 * sim.Nanosecond,
		HWExitLatency:   20 * sim.Nanosecond,
		PStateOnEntry:   P1,
	}
	c.params[C6A] = Params{
		ID: C6A, Name: "C6A", PowerWatts: 0.30, SnoopPowerWatts: 0.47,
		TransitionTime:  2 * sim.Microsecond,
		TargetResidency: 2 * sim.Microsecond,
		HWEntryLatency:  20 * sim.Nanosecond,
		HWExitLatency:   80 * sim.Nanosecond,
		PStateOnEntry:   P1,
		AgileWatts:      true,
	}
	c.params[C1E] = Params{
		ID: C1E, Name: "C1E", PowerWatts: 0.88, SnoopPowerWatts: 0.93,
		TransitionTime:  10 * sim.Microsecond,
		TargetResidency: 20 * sim.Microsecond,
		HWEntryLatency:  20 * sim.Nanosecond,
		HWExitLatency:   20 * sim.Nanosecond,
		PStateOnEntry:   Pn,
	}
	c.params[C6AE] = Params{
		ID: C6AE, Name: "C6AE", PowerWatts: 0.23, SnoopPowerWatts: 0.35,
		TransitionTime:  10 * sim.Microsecond,
		TargetResidency: 20 * sim.Microsecond,
		HWEntryLatency:  20 * sim.Nanosecond,
		HWExitLatency:   80 * sim.Nanosecond,
		PStateOnEntry:   Pn,
		AgileWatts:      true,
	}
	c.params[C6] = Params{
		ID: C6, Name: "C6", PowerWatts: 0.10, SnoopPowerWatts: 0.10,
		TransitionTime:  133 * sim.Microsecond,
		TargetResidency: 600 * sim.Microsecond,
		HWEntryLatency:  87 * sim.Microsecond,
		HWExitLatency:   30 * sim.Microsecond,
		PStateOnEntry:   P1,
	}
	return c
}

// Params returns the parameters of state id.
func (c *Catalog) Params(id ID) Params {
	if id < 0 || id >= NumStates {
		panic(fmt.Sprintf("cstate: invalid state %d", int(id)))
	}
	return c.params[id]
}

// EntryLatency, ExitLatency and ResidentPower return single Params
// fields without copying the full parameter record — the per-transition
// hot path reads exactly one field per call.

// EntryLatency returns the hardware entry flow duration of state id.
func (c *Catalog) EntryLatency(id ID) sim.Time {
	if id < 0 || id >= NumStates {
		panic(fmt.Sprintf("cstate: invalid state %d", int(id)))
	}
	return c.params[id].HWEntryLatency
}

// ExitLatency returns the hardware exit flow duration of state id.
func (c *Catalog) ExitLatency(id ID) sim.Time {
	if id < 0 || id >= NumStates {
		panic(fmt.Sprintf("cstate: invalid state %d", int(id)))
	}
	return c.params[id].HWExitLatency
}

// ResidentPower returns the per-core power while resident in state id.
func (c *Catalog) ResidentPower(id ID) float64 {
	if id < 0 || id >= NumStates {
		panic(fmt.Sprintf("cstate: invalid state %d", int(id)))
	}
	return c.params[id].PowerWatts
}

// SetPower overrides the resident power of a state; used by sensitivity
// (ablation) studies.
func (c *Catalog) SetPower(id ID, watts float64) {
	c.params[id].PowerWatts = watts
}

// PowerVector returns the per-state resident power indexed by ID.
func (c *Catalog) PowerVector() [NumStates]float64 {
	var v [NumStates]float64
	for i := range c.params {
		v[i] = c.params[i].PowerWatts
	}
	return v
}

// IdleStates lists every non-C0 state shallow-to-deep.
func (c *Catalog) IdleStates() []ID {
	return []ID{C1, C6A, C1E, C6AE, C6}
}

// DeepestByResidency returns the deepest (lowest power) state among the
// given menu whose target residency does not exceed predictedIdle.
// It returns C1-like shallowest fallback when nothing qualifies: the
// shallowest state in the menu, or C0 residency semantics are handled by
// the caller (a core with an empty menu simply spins in C0).
func (c *Catalog) DeepestByResidency(menu []ID, predictedIdle sim.Time) (ID, bool) {
	best := ID(-1)
	bestPower := -1.0
	shallowest := ID(-1)
	shallowestPower := -1.0
	for _, id := range menu {
		if id < 0 || id >= NumStates {
			panic(fmt.Sprintf("cstate: invalid state %d", int(id)))
		}
		if id == C0 {
			continue
		}
		// Field reads, not a Params copy: this runs on every idle entry.
		pw := c.params[id].PowerWatts
		if shallowest == -1 || pw > shallowestPower {
			shallowest = id
			shallowestPower = pw
		}
		if c.params[id].TargetResidency <= predictedIdle {
			if best == -1 || pw < bestPower {
				best = id
				bestPower = pw
			}
		}
	}
	if best != -1 {
		return best, true
	}
	if shallowest != -1 {
		return shallowest, false
	}
	return C0, false
}
