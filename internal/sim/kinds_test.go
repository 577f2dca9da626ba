package sim

import "testing"

// --- Typed event kinds ------------------------------------------------------

func TestKindDispatch(t *testing.T) {
	e := NewEngine()
	var got []uint64
	k := e.RegisterKind(func(now Time, a0, a1 uint64) {
		got = append(got, a0, a1)
	})
	e.ScheduleKind(5, k, 7, 9)
	e.ScheduleKindAt(10, k, 1, 2)
	e.Run()
	if len(got) != 4 || got[0] != 7 || got[1] != 9 || got[2] != 1 || got[3] != 2 {
		t.Fatalf("kind payloads = %v", got)
	}
	if e.Fired() != 2 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

func TestKindAndClosureInterleaveInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	k := e.RegisterKind(func(Time, uint64, uint64) { order = append(order, "kind") })
	e.ScheduleKind(5, k, 0, 0)
	e.Schedule(5, func(Time) { order = append(order, "closure") })
	e.ScheduleKind(5, k, 0, 0)
	e.Run()
	want := []string{"kind", "closure", "kind"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestUnregisteredKindPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling an unregistered kind did not panic")
		}
	}()
	e.ScheduleKind(1, Kind(3), 0, 0)
}

func TestCancelKindEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	k := e.RegisterKind(func(Time, uint64, uint64) { fired = true })
	ev := e.ScheduleKind(5, k, 0, 0)
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("canceled kind event fired")
	}
}

// --- Same-instant ordering and cancellation --------------------------------

// A handler that schedules another event at the same instant must see it
// fire after the already queued same-instant events (sequence order).
func TestBatchMergePreservesTotalOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(10, func(now Time) {
		order = append(order, "a")
		e.ScheduleAt(10, func(Time) { order = append(order, "late") })
	})
	e.Schedule(10, func(Time) { order = append(order, "b") })
	e.Schedule(10, func(Time) { order = append(order, "c") })
	e.Run()
	want := []string{"a", "b", "c", "late"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Canceling a same-instant event from an earlier handler at that
// instant must suppress it.
func TestCancelWithinBatch(t *testing.T) {
	e := NewEngine()
	var victim *Event
	fired := false
	e.Schedule(10, func(Time) { e.Cancel(victim) })
	victim = e.Schedule(10, func(Time) { fired = true })
	e.Run()
	if fired {
		t.Fatal("event canceled within its own batch still fired")
	}
	if e.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", e.Fired())
	}
}

// --- Allocation regression --------------------------------------------------

// Steady-state event churn must not allocate: the free list recycles
// Event structs and typed kinds avoid closure captures. A regression
// here silently reintroduces GC pressure on every simulated event.
func TestEngineChurnZeroAllocs(t *testing.T) {
	e := NewEngine()
	var k Kind
	k = e.RegisterKind(func(now Time, a0, a1 uint64) {
		e.ScheduleKind(64, k, a0, a1)
	})
	for i := 0; i < 64; i++ {
		e.ScheduleKind(Time(i), k, 1, 2)
	}
	// Warm the queue and free list.
	for i := 0; i < 256; i++ {
		e.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("event churn allocates %v allocs/op, want 0", avg)
	}
}

// Schedule+cancel pairs must also run allocation-free once warm.
func TestScheduleCancelZeroAllocs(t *testing.T) {
	e := NewEngine()
	noop := func(Time) {}
	for i := 0; i < 64; i++ {
		e.Cancel(e.Schedule(1000, noop))
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.Cancel(e.Schedule(1000, noop))
	})
	if avg != 0 {
		t.Fatalf("schedule+cancel allocates %v allocs/op, want 0", avg)
	}
}

// --- Cloning ----------------------------------------------------------------

// cloneModel is a tiny self-rescheduling model for the CloneInto tests:
// each fire logs (engine name, time, payload) and reschedules itself;
// timer is the held handle it may cancel.
type cloneModel struct {
	name  string
	eng   *Engine
	k     Kind
	timer *Event
	log   *[]string
}

func newCloneModel(name string, log *[]string) *cloneModel {
	m := &cloneModel{name: name, eng: NewEngine(), log: log}
	m.k = m.eng.RegisterKind(func(now Time, a0, a1 uint64) {
		*m.log = append(*m.log, m.name+":"+now.String())
		if a0 > 0 {
			m.eng.ScheduleKind(Time(a0), m.k, a0, a1)
		}
	})
	return m
}

func TestCloneIntoContinuesIdentically(t *testing.T) {
	var origLog, cloneLog []string
	orig := newCloneModel("x", &origLog)
	orig.eng.ScheduleKind(3, orig.k, 3, 0)
	orig.eng.ScheduleKind(5, orig.k, 5, 0)
	orig.timer = orig.eng.ScheduleKind(100, orig.k, 0, 0)
	orig.eng.RunTo(20)

	clone := newCloneModel("x", &cloneLog)
	clone.timer = orig.timer
	if err := orig.eng.CloneInto(clone.eng, &clone.timer); err != nil {
		t.Fatal(err)
	}
	if clone.timer == orig.timer || clone.timer.When() != 100 {
		t.Fatalf("held handle not remapped: %p (orig %p) at %v", clone.timer, orig.timer, clone.timer.When())
	}
	if clone.eng.Now() != 20 || clone.eng.Fired() != orig.eng.Fired() || clone.eng.Pending() != orig.eng.Pending() {
		t.Fatalf("clone at %v fired %d pending %d, original at %v fired %d pending %d",
			clone.eng.Now(), clone.eng.Fired(), clone.eng.Pending(), orig.eng.Now(), orig.eng.Fired(), orig.eng.Pending())
	}
	// The clone cancels its copy of the timer: the original's must
	// still fire.
	clone.eng.Cancel(clone.timer)
	origLog = origLog[:0]
	clone.eng.RunTo(120)
	orig.eng.RunTo(120)
	count := func(log []string, entry string) int {
		n := 0
		for _, e := range log {
			if e == entry {
				n++
			}
		}
		return n
	}
	at100 := "x:" + Time(100).String()
	if len(origLog) != len(cloneLog)+1 || count(origLog, at100) != count(cloneLog, at100)+1 {
		t.Fatalf("original %v, clone %v: want the clone's stream plus the original's timer", origLog, cloneLog)
	}
}

func TestCloneIntoRefusals(t *testing.T) {
	var log []string
	src := newCloneModel("x", &log)
	src.eng.ScheduleKind(1, src.k, 0, 0)
	if err := src.eng.CloneInto(NewEngine()); err == nil {
		t.Error("cloned into an engine with a different kind table")
	}
	dst := newCloneModel("y", &log)
	dst.eng.ScheduleKind(1, dst.k, 0, 0)
	if err := src.eng.CloneInto(dst.eng); err == nil {
		t.Error("cloned into an engine that already holds events")
	}
	fired := src.eng.ScheduleKind(0, src.k, 0, 0)
	src.eng.RunTo(0)
	stale := fired
	if err := src.eng.CloneInto(newCloneModel("z", &log).eng, &stale); err == nil {
		t.Error("accepted a held handle that already fired")
	}
	src.eng.Schedule(2, func(Time) {})
	if err := src.eng.CloneInto(newCloneModel("z", &log).eng); err == nil {
		t.Error("cloned a queue holding a closure event")
	}
}
