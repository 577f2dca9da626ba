// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is modeled as int64 nanoseconds from simulation start. Events are
// ordered by (time, insertion sequence), which makes runs fully
// deterministic for a given schedule: two events at the same instant fire
// in the order they were scheduled.
//
// The engine is the substrate for every experiment in this repository:
// request arrivals, service completions, C-state transitions, snoop
// traffic and turbo-budget updates are all events on a single queue.
//
// Performance: the pending events sit in one array kept sorted by
// (when, seq) in a window buf[head:tail]. The next event is buf[head];
// an insertion binary-searches its slot and shifts whichever side of it
// is shorter, so a short-delay completion or C-state transition lands
// near the head and a millisecond timer near the tail, and a cancel finds
// its event by the same search. The queue is short: across the quick
// evaluation and the four benchmark workloads a node holds a median of
// 30–36 pending events and never more than 41, and there a pop from the
// head plus a short shift beat a 4-ary heap's pointer-chasing sift-down
// (BenchmarkRunService ran about 19% faster). The shift grows with the
// depth: with uniform random delays a heap is faster again beyond 1–2K
// pending events (BenchmarkEngineRandomDelay: 177 → 407 ns per event at
// 8,192). The deepest queue any internal test builds holds 240 events
// (200 closed-loop connections). Fired and canceled Event structs are
// recycled through a free list, so steady-state scheduling performs no
// allocation.
//
// Hot-path callers avoid closure events entirely: they register a fixed
// set of typed handlers once (RegisterKind) and schedule events as a
// (kind, payload) pair (ScheduleKind). Dispatch is then one index into
// the registration-order jump table — no per-event closure allocation
// and nothing for the garbage collector to trace per event.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/snapbuf"
)

// Time is a simulation timestamp in nanoseconds since simulation start.
type Time int64

// Common durations expressed in simulation ticks.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1_000
	Millisecond Time = 1_000_000
	Second      Time = 1_000_000_000
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time as microseconds, the natural unit of this paper.
func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Micros()) }

// Handler is a callback invoked when an event fires. The engine passes the
// current simulation time (equal to the event's scheduled time).
type Handler func(now Time)

// Kind identifies a typed event handler registered with RegisterKind.
// The zero Kind is reserved for closure events.
type Kind uint32

// KindHandler is a typed event callback: the fire time plus the two
// payload words given to ScheduleKind (a core index, a request slot, a
// generation counter — whatever the registrant packed).
type KindHandler func(now Time, a0, a1 uint64)

// Event is a scheduled callback. The zero value is invalid; events are
// created through Engine.Schedule and friends.
//
// An Event handle is live from the Schedule call until the event fires or
// is canceled; after that the engine may recycle the struct for a future
// Schedule call. Holding a handle past that point is fine, but calling
// Cancel on it is not (it could cancel an unrelated recycled event) —
// drop references once an event has fired, as the simulator does with its
// package-idle timer.
type Event struct {
	when   Time
	seq    uint64
	a0, a1 uint64 // typed-event payload words
	fn     Handler
	kind   Kind // 0 = closure event dispatched through fn
	queued bool // pending in its engine's queue
}

// When reports the time at which the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Kind reports the event's typed kind (0 for a closure event).
func (e *Event) Kind() Kind { return e.kind }

// before is the queue's strict total order: (when, seq).
func (a *Event) before(b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now Time
	// buf[head:tail] holds the pending events sorted by Event.before;
	// every slot outside that window is nil.
	buf        []*Event
	head, tail int
	seq        uint64
	fired      uint64
	// free recycles fired/canceled events so steady-state scheduling does
	// not allocate.
	free []*Event
	// table is the typed-event jump table; index 0 is reserved so a zero
	// kind always means "closure event".
	table []KindHandler
}

// find returns the window position of the first pending event that does
// not sort before ev: ev's own slot when ev is pending, its insertion
// point when it is not.
func (e *Engine) find(ev *Event) int {
	lo, hi := e.head, e.tail
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e.buf[m].before(ev) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// push inserts ev, which holds the newest sequence number, in order,
// shifting whichever side of its slot is shorter by one. An event due
// no earlier than every pending one joins at the tail without a search.
func (e *Engine) push(ev *Event) {
	i := e.tail
	if i > e.head && ev.when < e.buf[i-1].when {
		i = e.find(ev)
	}
	if i-e.head < e.tail-i {
		if e.head == 0 {
			i += e.recenter()
		}
		if i > e.head { // an empty copy still costs a runtime call
			copy(e.buf[e.head-1:i-1], e.buf[e.head:i])
		}
		e.head--
		i--
	} else {
		if e.tail == len(e.buf) {
			i += e.recenter()
		}
		if i < e.tail {
			copy(e.buf[i+1:e.tail+1], e.buf[i:e.tail])
		}
		e.tail++
	}
	e.buf[i] = ev
	ev.queued = true
}

// recenter moves the window to the middle of buf, into a buffer eight
// times the window's size once it fills a quarter of buf, so both ends
// have room again; it returns how far the window moved.
func (e *Engine) recenter() int {
	n := e.tail - e.head
	buf := e.buf
	if 4*n >= len(buf) {
		buf = make([]*Event, max(8*n, 64))
	}
	h := (len(buf) - n) / 2
	copy(buf[h:h+n], e.buf[e.head:e.tail])
	clear(buf[:h]) // a move in place leaves stale slots behind
	clear(buf[h+n:])
	shift := h - e.head
	e.buf, e.head, e.tail = buf, h, h+n
	return shift
}

// slot returns the window position of ev, or -1 when ev is not pending
// in e.
func (e *Engine) slot(ev *Event) int {
	if !ev.queued {
		return -1
	}
	if i := e.find(ev); i < e.tail && e.buf[i] == ev {
		return i
	}
	return -1
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{table: make([]KindHandler, 1, 16)}
}

// RegisterKind adds fn to the engine's jump table and returns its Kind.
// Registration is meant to happen once at model construction: the point
// of typed events is that the per-fire cost is a table index instead of
// a freshly allocated closure. Registering a nil handler panics.
func (e *Engine) RegisterKind(fn KindHandler) Kind {
	if fn == nil {
		panic("sim: nil kind handler")
	}
	e.table = append(e.table, fn)
	return Kind(len(e.table) - 1)
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events currently queued. Canceled events
// are removed from the queue immediately, so they are never counted.
func (e *Engine) Pending() int { return e.tail - e.head }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// ScheduleAt queues fn to run at absolute time when. Scheduling in the
// past panics: it always indicates a model bug, and silently clamping
// would corrupt residency accounting.
func (e *Engine) ScheduleAt(when Time, fn Handler) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", when, e.now))
	}
	if fn == nil {
		panic("sim: nil handler")
	}
	ev := e.alloc()
	ev.when = when
	ev.fn = fn
	e.push(ev)
	return ev
}

// Schedule queues fn to run after the given delay from now.
func (e *Engine) Schedule(delay Time, fn Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleKindAt queues a typed event at absolute time when. The payload
// words a0/a1 are handed back to the registered handler verbatim.
func (e *Engine) ScheduleKindAt(when Time, k Kind, a0, a1 uint64) *Event {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", when, e.now))
	}
	if k == 0 || int(k) >= len(e.table) {
		panic(fmt.Sprintf("sim: unregistered event kind %d", k))
	}
	ev := e.alloc()
	ev.when = when
	ev.kind = k
	ev.a0, ev.a1 = a0, a1
	e.push(ev)
	return ev
}

// ScheduleKind queues a typed event after the given delay from now.
func (e *Engine) ScheduleKind(delay Time, k Kind, a0, a1 uint64) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleKindAt(e.now+delay, k, a0, a1)
}

// alloc returns a zeroed Event (recycled when possible) with the next
// sequence number, ready for the caller to fill and push.
func (e *Engine) alloc() *Event {
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{seq: e.seq}
	} else {
		ev = &Event{seq: e.seq}
	}
	return ev
}

// Cancel removes ev from the queue, shifting whichever side of its slot
// is shorter by one. Canceling an already-canceled event is a no-op.
// Cancel must not be called on an event that has already fired (see the
// Event lifetime note).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !ev.queued {
		return
	}
	i := e.head // the next event needs no search
	if e.buf[i] != ev {
		i = e.find(ev)
	}
	if i-e.head < e.tail-1-i {
		if i > e.head {
			copy(e.buf[e.head+1:i+1], e.buf[e.head:i])
		}
		e.buf[e.head] = nil
		e.head++
	} else {
		if i < e.tail-1 {
			copy(e.buf[i:e.tail-1], e.buf[i+1:e.tail])
		}
		e.tail--
		e.buf[e.tail] = nil
	}
	e.recycle(ev)
}

// recycle returns a dequeued event to the free list. The Handler
// reference is dropped so its captures can be collected.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.queued = false
	e.free = append(e.free, ev)
}

// CloneInto copies e's clock, sequence counter, fired count and pending
// queue into dst, a fresh engine whose model registered the same typed
// handlers in the same order, so every Kind means the same thing on
// both. Each *held names a pending event of e (or nil) and is rewritten
// to dst's copy of it: the model's stored handles, such as a timer it
// may cancel, must follow it into the clone. Closure events cannot be
// copied, since their handlers capture the original model, so a queue
// holding one is refused.
func (e *Engine) CloneInto(dst *Engine, held ...**Event) error {
	if len(dst.table) != len(e.table) {
		return fmt.Errorf("sim: clone target has %d event kinds, source has %d", len(dst.table)-1, len(e.table)-1)
	}
	if dst.Pending() != 0 {
		return fmt.Errorf("sim: clone target already holds %d events", dst.Pending())
	}
	q := e.buf[e.head:e.tail]
	evs := make([]Event, len(q))
	buf := make([]*Event, len(q))
	for i, ev := range q {
		if ev.kind == 0 {
			return fmt.Errorf("sim: cannot clone a closure event (at %v)", ev.when)
		}
		evs[i] = *ev
		buf[i] = &evs[i]
	}
	for _, h := range held {
		if *h == nil {
			continue
		}
		i := e.slot(*h)
		if i < 0 {
			return fmt.Errorf("sim: held event at %v is not pending", (*h).when)
		}
		*h = buf[i-e.head]
	}
	dst.now, dst.seq, dst.fired = e.now, e.seq, e.fired
	dst.buf, dst.head, dst.tail = buf, 0, len(buf)
	return nil
}

// eventBytes is the encoded size of one pending event (see AppendState).
const eventBytes = 5 * 8

// AppendState appends the engine's clock, sequence counter, fired count
// and pending typed events in their (when, seq) queue order, then, for
// each held handle, its position in that order (-1 for nil). The queue
// is always in that order, so two engines that will fire the same
// events encode to the same bytes. Like CloneInto it refuses closure
// events and a held handle that is not pending.
func (e *Engine) AppendState(enc *snapbuf.Encoder, held ...*Event) error {
	enc.I64(int64(e.now))
	enc.U64(e.seq)
	enc.U64(e.fired)
	enc.I64(int64(e.Pending()))
	for _, ev := range e.buf[e.head:e.tail] {
		if ev.kind == 0 {
			return fmt.Errorf("sim: cannot encode a closure event (at %v)", ev.when)
		}
		enc.I64(int64(ev.when))
		enc.U64(ev.seq)
		enc.U64(uint64(ev.kind))
		enc.U64(ev.a0)
		enc.U64(ev.a1)
	}
	for _, h := range held {
		pos := -1
		if h != nil {
			if pos = e.slot(h); pos < 0 {
				return fmt.Errorf("sim: held event at %v is not pending", h.when)
			}
			pos -= e.head
		}
		enc.I64(int64(pos))
	}
	return nil
}

// DecodeState loads what AppendState wrote into e, a fresh engine whose
// model registered the same typed handlers in the same order, and
// points each *held at the decoded event recorded in its position (nil
// for -1). It checks what the engine itself can: a clock that is not
// negative, registered kinds, strictly canonical order, no event before
// the clock or with a sequence number the counter has not issued.
// Payload words belong to the model, which checks them with
// CheckPending. Errors go to d.
func (e *Engine) DecodeState(d *snapbuf.Decoder, held ...**Event) {
	if e.Pending() != 0 || e.seq != 0 {
		d.Fail(errors.New("sim: decode target is not a fresh engine"))
		return
	}
	now, seq, fired := Time(d.I64()), d.U64(), d.U64()
	evs := make([]Event, d.Count(eventBytes))
	for i := range evs {
		ev := &evs[i]
		ev.when = Time(d.I64())
		ev.seq = d.U64()
		kind := d.U64()
		ev.a0, ev.a1 = d.U64(), d.U64()
		ev.queued = true
		if d.Err() != nil {
			return
		}
		switch {
		case kind == 0 || kind >= uint64(len(e.table)):
			d.Fail(fmt.Errorf("sim: corrupt event kind %d (%d registered)", kind, len(e.table)-1))
		case ev.when < now || ev.seq > seq:
			d.Fail(fmt.Errorf("sim: corrupt event at %v (clock %v, seq %d of %d)", ev.when, now, ev.seq, seq))
		}
		ev.kind = Kind(kind)
		if i > 0 && !evs[i-1].before(ev) {
			d.Fail(errors.New("sim: pending events out of order"))
		}
		if d.Err() != nil {
			return
		}
	}
	pos := make([]int64, len(held))
	for i := range pos {
		if pos[i] = d.I64(); pos[i] < -1 || pos[i] >= int64(len(evs)) {
			d.Fail(fmt.Errorf("sim: corrupt held-event position %d", pos[i]))
		}
	}
	if now < 0 {
		d.Fail(fmt.Errorf("sim: corrupt clock %v", now))
	}
	if d.Err() != nil {
		return
	}
	e.now, e.seq, e.fired = now, seq, fired
	e.buf, e.head, e.tail = make([]*Event, len(evs)), 0, len(evs)
	for i := range evs {
		e.buf[i] = &evs[i]
	}
	for i, h := range held {
		*h = nil
		if pos[i] >= 0 {
			*h = &evs[pos[i]]
		}
	}
}

// CheckPending calls valid on every pending typed event's kind and
// payload words and returns an error for the first it rejects: the
// model's check, after DecodeState, that every payload names something
// it holds (a core index in range, say).
func (e *Engine) CheckPending(valid func(k Kind, a0, a1 uint64) bool) error {
	for _, ev := range e.buf[e.head:e.tail] {
		if !valid(ev.kind, ev.a0, ev.a1) {
			return fmt.Errorf("sim: corrupt payload (%d, %d) for event kind %d at %v", ev.a0, ev.a1, ev.kind, ev.when)
		}
	}
	return nil
}

// Step executes the single next event, advancing the clock to its time.
// It reports false when the queue is empty. The event leaves the queue
// and is recycled before its handler runs; the handler's own same-instant
// events have later sequence numbers, so they fire after every event
// already pending at that instant.
func (e *Engine) Step() bool {
	if e.head == e.tail {
		return false
	}
	ev := e.buf[e.head]
	e.buf[e.head] = nil
	e.head++
	e.now = ev.when
	e.fired++
	kind, a0, a1, fn := ev.kind, ev.a0, ev.a1, ev.fn
	e.recycle(ev)
	if kind != 0 {
		e.table[kind](e.now, a0, a1)
	} else {
		fn(e.now)
	}
	return true
}

// RunTo executes every event scheduled at or before when, then parks the
// clock exactly at when — without draining events scheduled beyond the
// bound. It is the pause point of a resumable simulation: pending future
// events (arrival chains, background timers, in-flight completions)
// survive in the queue, and a later RunTo continues event-for-event as
// if the run had never paused. Calling RunTo with when in the past
// panics.
func (e *Engine) RunTo(when Time) {
	if when < e.now {
		panic(fmt.Sprintf("sim: run to %v before now %v", when, e.now))
	}
	for e.head < e.tail && e.buf[e.head].when <= when {
		e.Step()
	}
	e.now = when
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
