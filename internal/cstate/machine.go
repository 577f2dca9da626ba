package cstate

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapbuf"
	"repro/internal/stats"
)

// Phase describes what the core hardware is doing right now, at the
// granularity that matters for latency and power accounting.
type Phase int

// Machine phases.
const (
	// PhaseActive: executing in C0.
	PhaseActive Phase = iota
	// PhaseEntering: running an idle-state entry flow; the core cannot
	// respond to interrupts until entry completes.
	PhaseEntering
	// PhaseIdle: resident in the selected idle state.
	PhaseIdle
	// PhaseExiting: running the wake-up flow toward C0.
	PhaseExiting
)

func (p Phase) String() string {
	switch p {
	case PhaseActive:
		return "active"
	case PhaseEntering:
		return "entering"
	case PhaseIdle:
		return "idle"
	default:
		return "exiting"
	}
}

// Machine is the per-core C-state machine. The server model drives it
// with Enter/Wake calls; the machine accounts residency (hardware-counter
// style: transition phases are attributed to C0, matching how
// MSR_CORE_Cx_RESIDENCY counts only resident time) and exposes the
// latencies the server must respect.
type Machine struct {
	catalog *Catalog
	res     *stats.Residency
	phase   Phase
	state   ID // state being entered / resident / exited; C0 when active

	// wakePending records an interrupt that arrived during entry and must
	// be honored the moment entry completes (Sec. 3 C6 flows are not
	// abortable mid-entry).
	wakePending bool
}

// NewMachine creates a machine for one core, active in C0 at time now.
func NewMachine(catalog *Catalog, now sim.Time) *Machine {
	labels := make([]string, NumStates)
	for i := 0; i < int(NumStates); i++ {
		labels[i] = ID(i).String()
	}
	return &Machine{
		catalog: catalog,
		res:     stats.NewResidency(labels, int(C0), int64(now)),
		phase:   PhaseActive,
		state:   C0,
	}
}

// Phase returns the current hardware phase.
func (m *Machine) Phase() Phase { return m.phase }

// State returns the target/resident C-state (C0 while active).
func (m *Machine) State() ID { return m.state }

// Catalog returns the machine's catalog.
func (m *Machine) Catalog() *Catalog { return m.catalog }

// Enter begins the entry flow into the given idle state and returns the
// hardware entry latency; the caller must call EntryComplete after that
// latency has elapsed. Calling Enter while not active panics.
func (m *Machine) Enter(id ID, now sim.Time) sim.Time {
	if m.phase != PhaseActive {
		panic(fmt.Sprintf("cstate: Enter(%v) in phase %v", id, m.phase))
	}
	if id == C0 || id < 0 || id >= NumStates {
		panic(fmt.Sprintf("cstate: Enter(%v) is not an idle state", id))
	}
	m.phase = PhaseEntering
	m.state = id
	m.wakePending = false
	return m.catalog.EntryLatency(id)
}

// EntryComplete marks the end of the entry flow. It returns true if an
// interrupt arrived during entry, in which case the caller must
// immediately begin the exit flow (Wake has already been recorded; the
// returned duration is the exit latency to schedule).
func (m *Machine) EntryComplete(now sim.Time) (mustExit bool, exitLatency sim.Time) {
	if m.phase != PhaseEntering {
		panic(fmt.Sprintf("cstate: EntryComplete in phase %v", m.phase))
	}
	if m.wakePending {
		// The core touched the idle state only instantaneously; count a
		// transition into it and immediately start exiting.
		m.res.Switch(int(m.state), int64(now))
		m.phase = PhaseExiting
		return true, m.catalog.ExitLatency(m.state)
	}
	m.phase = PhaseIdle
	m.res.Switch(int(m.state), int64(now))
	return false, 0
}

// Wake requests a wake-up at time now. Behaviour depends on phase:
//   - PhaseIdle: begins the exit flow; returns its latency.
//   - PhaseEntering: records the pending wake; the exit begins when entry
//     completes. Returns the remaining entry time as unknown (0) — the
//     caller learns the exit latency from EntryComplete.
//   - PhaseActive / PhaseExiting: no-op (0): the core is already awake or
//     already waking.
//
// The boolean reports whether an exit flow was started by this call.
func (m *Machine) Wake(now sim.Time) (sim.Time, bool) {
	switch m.phase {
	case PhaseIdle:
		m.phase = PhaseExiting
		m.res.Switch(int(C0), int64(now))
		return m.catalog.ExitLatency(m.state), true
	case PhaseEntering:
		m.wakePending = true
		return 0, false
	default:
		return 0, false
	}
}

// ExitComplete marks the end of the exit flow; the core is active again.
func (m *Machine) ExitComplete(now sim.Time) {
	if m.phase != PhaseExiting {
		panic(fmt.Sprintf("cstate: ExitComplete in phase %v", m.phase))
	}
	// If the wake came from PhaseEntering, residency was switched into the
	// idle state at EntryComplete; account the (zero-length or short)
	// stay and return to C0 now.
	m.res.Switch(int(C0), int64(now))
	m.phase = PhaseActive
	m.state = C0
}

// Clone returns an independent copy of the machine mid-flow: same
// phase, state and pending wake, its own residency tracker, and the
// shared immutable catalog.
func (m *Machine) Clone() *Machine {
	c := *m
	c.res = m.res.Clone()
	return &c
}

// AppendState appends the machine's phase, state, pending wake and
// residency tracker: what Clone copies. The catalog is construction
// input.
func (m *Machine) AppendState(e *snapbuf.Encoder) {
	e.U8(uint8(m.phase))
	e.U8(uint8(m.state))
	e.Bool(m.wakePending)
	m.res.AppendState(e)
}

// DecodeState loads what AppendState wrote into m, a machine NewMachine
// built over the same catalog. A machine is in C0 exactly when active,
// so any other pairing of phase and state is corrupt; now bounds the
// residency marks. Errors go to d.
func (m *Machine) DecodeState(d *snapbuf.Decoder, now sim.Time) {
	phase, state, wake := Phase(d.U8()), ID(d.U8()), d.Bool()
	if d.Err() != nil {
		return
	}
	if phase > PhaseExiting || state >= NumStates || (phase == PhaseActive) != (state == C0) {
		d.Fail(errors.New("cstate: corrupt machine phase or state"))
		return
	}
	m.phase, m.state, m.wakePending = phase, state, wake
	m.res.DecodeState(d, int64(now))
}

// Residency exposes the underlying residency tracker.
func (m *Machine) Residency() *stats.Residency { return m.res }

// Close finalizes residency accounting at time now.
func (m *Machine) Close(now sim.Time) { m.res.Close(int64(now)) }

// Fractions returns per-state residency fractions indexed by ID.
func (m *Machine) Fractions() [NumStates]float64 {
	var out [NumStates]float64
	copy(out[:], m.res.Fractions())
	return out
}

// Transitions returns the number of entries into state id.
func (m *Machine) Transitions(id ID) uint64 { return m.res.Transitions(int(id)) }
