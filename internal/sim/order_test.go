package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/snapbuf"
)

// The differential test drives the engine and a reference queue with the
// same seeded program and compares the order in which events fire. The
// reference keeps its pending events in a plain slice and sorts it by
// (when, seq) before every pop, so it states the ordering contract with
// no cleverness at all.

// driver is what a program runs against: the engine under test or the
// reference. Event ids are issued in scheduling order, starting at 1,
// so an id is also its event's sequence number.
type driver interface {
	schedule(delay Time)
	cancel(id uint64)
	step() bool
	runTo(t Time)
	now() Time
	log() []uint64
}

// react is what a fired event does, decided by its id alone so every
// driver does the same: sometimes schedule a child (delay 0 is the same
// instant), sometimes cancel a nearby id, which may be pending at the
// same instant, still pending later, already fired or never issued.
func react(d driver, id uint64) {
	h := id * 0x9E3779B97F4A7C15
	h ^= h >> 29
	if h%3 == 0 {
		d.schedule(Time(h >> 8 % 3))
	}
	if h%4 == 1 {
		d.cancel(id + 1 + h>>16%4)
	}
}

// engineDriver runs a program on an Engine, holding a handle to every
// pending event it scheduled.
type engineDriver struct {
	eng    *Engine
	k      Kind
	held   map[uint64]*Event
	nextID uint64
	fired  []uint64
}

func newEngineDriver() *engineDriver {
	m := &engineDriver{eng: NewEngine(), held: map[uint64]*Event{}}
	m.k = m.eng.RegisterKind(func(_ Time, id, _ uint64) {
		delete(m.held, id)
		m.fired = append(m.fired, id)
		react(m, id)
	})
	return m
}

func (m *engineDriver) schedule(delay Time) {
	m.nextID++
	m.held[m.nextID] = m.eng.ScheduleKind(delay, m.k, m.nextID, 0)
}

func (m *engineDriver) cancel(id uint64) {
	if ev, ok := m.held[id]; ok {
		m.eng.Cancel(ev)
		delete(m.held, id)
	}
}

func (m *engineDriver) step() bool    { return m.eng.Step() }
func (m *engineDriver) runTo(t Time)  { m.eng.RunTo(t) }
func (m *engineDriver) now() Time     { return m.eng.Now() }
func (m *engineDriver) log() []uint64 { return m.fired }

// copyDriver returns a fresh driver carrying m's ids, log and handles,
// its engine filled by load, which must remap every handle it is given.
func (m *engineDriver) copyDriver(t *testing.T, load func(dst *Engine, held []**Event) error) *engineDriver {
	t.Helper()
	c := newEngineDriver()
	c.nextID, c.fired = m.nextID, slices.Clone(m.fired)
	ids := make([]uint64, 0, len(m.held))
	for id := range m.held {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	handles := make([]*Event, len(ids))
	ptrs := make([]**Event, len(ids))
	for i, id := range ids {
		handles[i] = m.held[id]
		ptrs[i] = &handles[i]
	}
	if err := load(c.eng, ptrs); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if handles[i] == m.held[id] || handles[i].When() != m.held[id].When() {
			t.Fatalf("held handle of event %d not remapped", id)
		}
		c.held[id] = handles[i]
	}
	return c
}

// refDriver is the reference queue.
type refDriver struct {
	clock  Time
	queue  []refEvent
	nextID uint64
	fired  []uint64
}

type refEvent struct {
	when Time
	id   uint64 // also the sequence number
}

func (r *refDriver) schedule(delay Time) {
	r.nextID++
	r.queue = append(r.queue, refEvent{r.clock + delay, r.nextID})
}

func (r *refDriver) cancel(id uint64) {
	r.queue = slices.DeleteFunc(r.queue, func(ev refEvent) bool { return ev.id == id })
}

func (r *refDriver) step() bool {
	if len(r.queue) == 0 {
		return false
	}
	slices.SortFunc(r.queue, func(a, b refEvent) int {
		if a.when != b.when {
			return int(a.when - b.when)
		}
		return int(a.id) - int(b.id)
	})
	ev := r.queue[0]
	r.queue = r.queue[1:]
	r.clock = ev.when
	r.fired = append(r.fired, ev.id)
	react(r, ev.id)
	return true
}

func (r *refDriver) runTo(t Time) {
	for len(r.queue) > 0 && slices.MinFunc(r.queue, func(a, b refEvent) int { return int(a.when - b.when) }).when <= t {
		r.step()
	}
	r.clock = t
}

func (r *refDriver) now() Time     { return r.clock }
func (r *refDriver) log() []uint64 { return r.fired }

// op is one program instruction.
type op struct {
	kind int // opSchedule, opCancel, opStep or opRunTo
	arg  uint64
}

const (
	opSchedule = iota
	opCancel
	opStep
	opRunTo
)

// randomProgram draws n instructions: schedules with tied (0–3 ns) or
// spread (up to 5 µs) delays, cancels of any id issued so far or soon,
// single steps and short RunTo hops.
func randomProgram(rng *rand.Rand, n int) []op {
	prog := make([]op, n)
	for i := range prog {
		switch r := rng.IntN(100); {
		case r < 25:
			prog[i] = op{opSchedule, rng.Uint64N(4)}
		case r < 45:
			prog[i] = op{opSchedule, rng.Uint64N(5000)}
		case r < 60:
			prog[i] = op{opCancel, 1 + rng.Uint64N(uint64(i)+8)}
		case r < 85:
			prog[i] = op{opStep, 0}
		default:
			prog[i] = op{opRunTo, rng.Uint64N(300)}
		}
	}
	return prog
}

// runProgram executes prog on d.
func runProgram(d driver, prog []op) {
	for _, o := range prog {
		switch o.kind {
		case opSchedule:
			d.schedule(Time(o.arg))
		case opCancel:
			d.cancel(o.arg)
		case opStep:
			d.step()
		case opRunTo:
			d.runTo(d.now() + Time(o.arg))
		}
	}
}

// TestQueueMatchesReference runs seeded random programs on the engine
// and on the reference and requires the same events to fire in the same
// order. Halfway through, the engine is copied with CloneInto and
// through AppendState and DecodeState, held handles included, and every
// copy must continue exactly as the reference does.
func TestQueueMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		prog := randomProgram(rng, 400)
		half := len(prog) / 2

		ref := &refDriver{}
		eng := newEngineDriver()
		runProgram(ref, prog[:half])
		runProgram(eng, prog[:half])
		clone := eng.copyDriver(t, func(dst *Engine, held []**Event) error {
			return eng.eng.CloneInto(dst, held...)
		})
		decoded := eng.copyDriver(t, func(dst *Engine, held []**Event) error {
			var enc snapbuf.Encoder
			handles := make([]*Event, len(held))
			for i, h := range held {
				handles[i] = *h
			}
			if err := eng.eng.AppendState(&enc, handles...); err != nil {
				return err
			}
			d := snapbuf.NewDecoder(enc.Buf)
			dst.DecodeState(d, held...)
			return d.Close()
		})

		drivers := map[string]driver{"engine": eng, "clone": clone, "decoded": decoded}
		runProgram(ref, prog[half:])
		ref.runTo(ref.now() + 10_000)
		for name, d := range drivers {
			runProgram(d, prog[half:])
			d.runTo(d.now() + 10_000)
			if !slices.Equal(d.log(), ref.log()) {
				t.Fatalf("seed %d: %s fired %v,\nreference fired %v", seed, name, d.log(), ref.log())
			}
			if d.now() != ref.now() {
				t.Fatalf("seed %d: %s clock %v, reference %v", seed, name, d.now(), ref.now())
			}
		}
		if eng.eng.Pending() != len(ref.queue) {
			t.Fatalf("seed %d: engine holds %d events, reference %d", seed, eng.eng.Pending(), len(ref.queue))
		}
	}
}
