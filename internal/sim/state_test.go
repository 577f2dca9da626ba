package sim

import (
	"slices"
	"testing"

	"repro/internal/snapbuf"
)

// TestEngineStateRoundTrip pins the engine's snapshot codec: a fresh
// engine with the same kind table, decoded from a mid-run snapshot,
// holds the same clock, counters and queue, remaps the held handle, and
// fires the same future as the original.
func TestEngineStateRoundTrip(t *testing.T) {
	var origLog, gotLog []string
	orig := newCloneModel("x", &origLog)
	orig.eng.ScheduleKind(3, orig.k, 3, 0)
	orig.eng.ScheduleKind(5, orig.k, 5, 7)
	orig.timer = orig.eng.ScheduleKind(100, orig.k, 0, 0)
	orig.eng.RunTo(20)

	var enc snapbuf.Encoder
	if err := orig.eng.AppendState(&enc, orig.timer, nil); err != nil {
		t.Fatal(err)
	}
	got := newCloneModel("x", &gotLog)
	var unheld *Event
	d := snapbuf.NewDecoder(enc.Buf)
	got.eng.DecodeState(d, &got.timer, &unheld)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got.timer == nil || got.timer.When() != 100 || got.timer.Kind() != got.k || unheld != nil {
		t.Fatalf("held handles decoded as %+v and %v", got.timer, unheld)
	}
	if got.eng.Now() != 20 || got.eng.Fired() != orig.eng.Fired() || got.eng.Pending() != orig.eng.Pending() {
		t.Fatalf("decoded engine at %v fired %d pending %d, original at %v fired %d pending %d",
			got.eng.Now(), got.eng.Fired(), got.eng.Pending(), orig.eng.Now(), orig.eng.Fired(), orig.eng.Pending())
	}
	// The payload check sees every pending event and reports the first
	// one it rejects.
	if err := got.eng.CheckPending(func(k Kind, a0, a1 uint64) bool { return k == got.k }); err != nil {
		t.Fatal(err)
	}
	if err := got.eng.CheckPending(func(_ Kind, _, a1 uint64) bool { return a1 != 7 }); err == nil {
		t.Fatal("CheckPending accepted a payload its check rejects")
	}

	origLog = origLog[:0]
	orig.eng.RunTo(150)
	got.eng.RunTo(150)
	if !slices.Equal(origLog, gotLog) {
		t.Fatalf("decoded engine fired %v, original %v", gotLog, origLog)
	}
}

// TestEngineAppendStateRefusals pins what cannot be encoded: a closure
// event, and a held handle that is no longer pending.
func TestEngineAppendStateRefusals(t *testing.T) {
	var log []string
	m := newCloneModel("x", &log)
	fired := m.eng.ScheduleKind(0, m.k, 0, 0)
	m.eng.RunTo(0)
	var enc snapbuf.Encoder
	if err := m.eng.AppendState(&enc, fired); err == nil {
		t.Error("encoded a held handle that already fired")
	}
	m.eng.Schedule(2, func(Time) {})
	if err := m.eng.AppendState(&enc); err == nil {
		t.Error("encoded a queue holding a closure event")
	}
}

// TestEngineDecodeStateRejectsCorrupt pins the checks the engine makes
// on its own fields: a fresh target, registered kinds, canonical order,
// no event before the clock or past the sequence counter, held
// positions in range, and a clock that is not negative.
func TestEngineDecodeStateRejectsCorrupt(t *testing.T) {
	type ev struct {
		when Time
		seq  uint64
		kind uint64
	}
	doc := func(now Time, seq uint64, held int64, evs ...ev) []byte {
		var e snapbuf.Encoder
		e.I64(int64(now))
		e.U64(seq)
		e.U64(0)
		e.I64(int64(len(evs)))
		for _, v := range evs {
			e.I64(int64(v.when))
			e.U64(v.seq)
			e.U64(v.kind)
			e.U64(0)
			e.U64(0)
		}
		e.I64(held)
		return e.Buf
	}
	var log []string
	valid := doc(10, 2, 1, ev{10, 1, 1}, ev{12, 2, 1})
	d := snapbuf.NewDecoder(valid)
	var h *Event
	newCloneModel("x", &log).eng.DecodeState(d, &h)
	if err := d.Close(); err != nil || h == nil || h.When() != 12 {
		t.Fatalf("valid document: err %v, held %v", err, h)
	}

	cases := map[string][]byte{
		"unregistered kind":     doc(10, 2, -1, ev{11, 1, 2}),
		"closure kind":          doc(10, 2, -1, ev{11, 1, 0}),
		"event before clock":    doc(10, 2, -1, ev{9, 1, 1}),
		"sequence not issued":   doc(10, 2, -1, ev{11, 3, 1}),
		"out of order":          doc(10, 2, -1, ev{12, 1, 1}, ev{11, 2, 1}),
		"held position too big": doc(10, 2, 1, ev{11, 1, 1}),
		"held position < -1":    doc(10, 2, -2, ev{11, 1, 1}),
		"negative clock":        doc(-1, 0, -1),
		"truncated":             valid[:len(valid)-3],
	}
	for name, data := range cases {
		m := newCloneModel("x", &log)
		d := snapbuf.NewDecoder(data)
		m.eng.DecodeState(d, &h)
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		if m.eng.Pending() != 0 || m.eng.Now() != 0 {
			t.Errorf("%s: a rejected document changed the engine", name)
		}
	}

	used := newCloneModel("x", &log)
	used.eng.ScheduleKind(1, used.k, 0, 0)
	d = snapbuf.NewDecoder(valid)
	used.eng.DecodeState(d, &h)
	if d.Err() == nil {
		t.Error("decoded into an engine that already holds events")
	}
}

// TestEngineMisusePanics pins the typed-event guards and Step's empty
// queue.
func TestEngineMisusePanics(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on an empty queue reported an event")
	}
	k := e.RegisterKind(func(Time, uint64, uint64) {})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil kind handler", func() { e.RegisterKind(nil) })
	mustPanic("negative kind delay", func() { e.ScheduleKind(-1, k, 0, 0) })
	e.ScheduleKind(5, k, 0, 0)
	if !e.Step() || e.Now() != 5 {
		t.Fatalf("Step fired nothing or left the clock at %v", e.Now())
	}
	mustPanic("kind scheduled in the past", func() { e.ScheduleKindAt(4, k, 0, 0) })
}
