package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func(Time) { order = append(order, 3) })
	e.Schedule(10, func(Time) { order = append(order, 1) })
	e.Schedule(20, func(Time) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func(Time) { fired = true })
	e.Cancel(ev)
	if e.Pending() != 0 {
		t.Fatal("canceled event still pending")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	// Double cancel must be a no-op.
	e.Cancel(ev)
}

func TestCancelFromHandler(t *testing.T) {
	e := NewEngine()
	fired := false
	var victim *Event
	e.Schedule(5, func(Time) { e.Cancel(victim) })
	victim = e.Schedule(10, func(Time) { fired = true })
	e.Run()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

// TestRunUntilHorizon pins that RunTo fires exactly the events at or
// before its bound and leaves the rest queued for a later call.
func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.Schedule(d, func(now Time) { fired = append(fired, now) })
	}
	e.RunTo(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.RunTo(MaxTime)
	if len(fired) != 4 {
		t.Fatalf("fired %d events after full run, want 4", len(fired))
	}
}

func TestScheduleFromHandler(t *testing.T) {
	e := NewEngine()
	count := 0
	var step Handler
	step = func(now Time) {
		count++
		if count < 5 {
			e.Schedule(10, step)
		}
	}
	e.Schedule(0, step)
	e.Run()
	if count != 5 {
		t.Fatalf("chained handler ran %d times, want 5", count)
	}
	if e.Now() != 40 {
		t.Fatalf("clock = %v, want 40", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(5, func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.Schedule(-1, func(Time) {})
}

func TestNilHandlerPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	e.Schedule(1, nil)
}

// TestAdvanceTo pins that RunTo moves the clock over an empty stretch
// and, with an event inside the stretch, fires it on the way.
func TestAdvanceTo(t *testing.T) {
	e := NewEngine()
	e.RunTo(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
	var fired Time
	e.Schedule(10, func(now Time) { fired = now })
	e.RunTo(200)
	if fired != 110 || e.Now() != 200 {
		t.Fatalf("fired at %v, clock %v; want 110, 200", fired, e.Now())
	}
}

func TestDurationConversion(t *testing.T) {
	if Microsecond != Time(time.Microsecond.Nanoseconds()) {
		t.Fatal("Microsecond is not 1us of ticks")
	}
	if got := (133 * Microsecond).Micros(); got != 133 {
		t.Fatalf("Micros = %v, want 133", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Fatalf("Seconds = %v, want 2", got)
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and all of them fire.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.Schedule(Time(d), func(now Time) { fired = append(fired, now) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fired() counts executed events exactly, and canceled events
// are never executed.
func TestPropertyCancelHalf(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var events []*Event
		ran := 0
		for _, d := range delays {
			events = append(events, e.Schedule(Time(d), func(Time) { ran++ }))
		}
		canceled := 0
		for i, ev := range events {
			if i%2 == 0 {
				e.Cancel(ev)
				canceled++
			}
		}
		e.Run()
		return ran == len(delays)-canceled && e.Fired() == uint64(ran)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRunToPausesWithoutDraining pins the resumable-simulation contract:
// RunTo executes exactly the events inside the bound, parks the clock at
// the bound, leaves future events queued, and a later RunTo resumes
// event-for-event — including an event that straddles the pause point.
func TestRunToPausesWithoutDraining(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 50, 100, 150, 300} {
		at := at
		e.ScheduleAt(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunTo(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want parked at 100", e.Now())
	}
	if want := []Time{10, 50, 100}; len(fired) != 3 || fired[0] != want[0] || fired[1] != want[1] || fired[2] != want[2] {
		t.Fatalf("fired %v inside bound, want %v", fired, want)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d after pause, want 2 undrained events", e.Pending())
	}
	// Resume: schedule more work relative to the paused clock, then run on.
	e.Schedule(75, func(now Time) { fired = append(fired, now) }) // at 175
	e.RunTo(400)
	want := []Time{10, 50, 100, 150, 175, 300}
	if len(fired) != len(want) {
		t.Fatalf("fired %v after resume, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v after resume, want %v", fired, want)
		}
	}
	if e.Now() != 400 {
		t.Errorf("clock = %v after resume, want 400", e.Now())
	}
}

// TestRunToMatchesSingleRun pins that two RunTo calls are equivalent to
// one spanning call: same events fired, same final clock.
func TestRunToMatchesSingleRun(t *testing.T) {
	build := func() (*Engine, *int) {
		e := NewEngine()
		n := new(int)
		var reschedule Handler
		reschedule = func(now Time) {
			*n++
			if now < 1000 {
				e.Schedule(7, reschedule)
			}
		}
		e.ScheduleAt(3, reschedule)
		return e, n
	}
	a, na := build()
	a.RunTo(500)
	a.RunTo(1200)
	b, nb := build()
	b.RunTo(1200)
	if *na != *nb {
		t.Errorf("split RunTo fired %d events, single RunTo fired %d", *na, *nb)
	}
	if a.Now() != b.Now() || a.Fired() != b.Fired() {
		t.Errorf("split (now=%v fired=%d) != single (now=%v fired=%d)",
			a.Now(), a.Fired(), b.Now(), b.Fired())
	}
}

// TestRunToPastPanics pins that rewinding the clock is rejected.
func TestRunToPastPanics(t *testing.T) {
	e := NewEngine()
	e.RunTo(100)
	defer func() {
		if recover() == nil {
			t.Error("RunTo into the past did not panic")
		}
	}()
	e.RunTo(50)
}
