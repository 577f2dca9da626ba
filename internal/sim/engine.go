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
// Performance: the event queue is a concrete-typed 4-ary heap (no
// container/heap interface dispatch, shallower than a binary heap for the
// same size), and fired or canceled Event structs are recycled through a
// free list, so steady-state scheduling performs no allocation.
//
// Hot-path callers avoid closure events entirely: they register a fixed
// set of typed handlers once (RegisterKind) and schedule events as a
// (kind, payload) pair (ScheduleKind). Dispatch is then one index into
// the registration-order jump table — no per-event closure allocation
// and nothing for the garbage collector to trace per event. RunTo
// additionally drains same-timestamp events as a batch, paying the clock
// bookkeeping once per instant instead of once per event.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
	when     Time
	seq      uint64
	a0, a1   uint64 // typed-event payload words
	fn       Handler
	kind     Kind  // 0 = closure event dispatched through fn
	index    int32 // heap index; -1 when not queued
	canceled bool
}

// When reports the time at which the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// Kind reports the event's typed kind (0 for a closure event).
func (e *Event) Kind() Kind { return e.kind }

// before is the strict ordering used by the heap: (when, seq).
func (a *Event) before(b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events ordered by Event.before. A
// 4-ary layout halves the tree depth of a binary heap, trading slightly
// wider sift-down comparisons for fewer cache-missing levels — a net win
// for the short, hot queues this simulator runs (tens of events).
type eventQueue []*Event

const heapArity = 4

// push appends e and restores the heap property.
func (q *eventQueue) push(e *Event) {
	e.index = int32(len(*q))
	*q = append(*q, e)
	q.up(int(e.index))
}

// popMin removes and returns the minimum event. Instead of moving the
// last leaf to the root and sifting it all the way down (it almost
// always belongs near the bottom), the hole left by the root cascades
// down along minimum-child links — one 4-way comparison per level — and
// the displaced leaf sifts up from there, which is usually zero moves.
func (q *eventQueue) popMin() *Event {
	h := *q
	min := h[0]
	last := len(h) - 1
	x := h[last]
	h[last] = nil
	*q = h[:last]
	if last > 0 {
		(*q).cascade(x)
	}
	min.index = -1
	return min
}

// cascade fills the hole at the root with minimum children down to a
// leaf, places x in the final hole, and restores the heap upward.
func (q eventQueue) cascade(x *Event) {
	n := len(q)
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		q[i] = q[min]
		q[i].index = int32(i)
		i = min
	}
	q[i] = x
	x.index = int32(i)
	q.up(i)
}

// remove deletes the event at heap index i.
func (q *eventQueue) remove(i int) {
	h := *q
	last := len(h) - 1
	removed := h[i]
	if i != last {
		h[i] = h[last]
		h[i].index = int32(i)
	}
	h[last] = nil
	*q = h[:last]
	if i != last {
		if !q.up(i) {
			q.down(i)
		}
	}
	removed.index = -1
}

// up sifts the event at index i toward the root; it reports whether the
// event moved.
func (q eventQueue) up(i int) bool {
	moved := false
	e := q[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		p := q[parent]
		if !e.before(p) {
			break
		}
		q[i] = p
		p.index = int32(i)
		i = parent
		moved = true
	}
	q[i] = e
	e.index = int32(i)
	return moved
}

// down sifts the event at index i toward the leaves.
func (q eventQueue) down(i int) {
	n := len(q)
	e := q[i]
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q[c].before(q[min]) {
				min = c
			}
		}
		if !q[min].before(e) {
			break
		}
		q[i] = q[min]
		q[i].index = int32(i)
		i = min
	}
	q[i] = e
	e.index = int32(i)
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	fired uint64
	// free recycles fired/canceled events so steady-state scheduling does
	// not allocate.
	free []*Event
	// table is the typed-event jump table; index 0 is reserved so a zero
	// kind always means "closure event".
	table []KindHandler
	// batch is the reusable same-timestamp drain buffer (see drainBatch).
	batch []*Event
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
func (e *Engine) Pending() int { return len(e.queue) }

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
	e.queue.push(ev)
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
	e.queue.push(ev)
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
// sequence number and index -1, ready for the caller to fill and push.
func (e *Engine) alloc() *Event {
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{seq: e.seq, index: -1}
	} else {
		ev = &Event{seq: e.seq, index: -1}
	}
	return ev
}

// Cancel marks ev as canceled and removes it from the queue. Canceling an
// already-canceled event is a no-op. Cancel must not be called on an
// event that has already fired (see the Event lifetime note).
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	if ev.index >= 0 {
		e.queue.remove(int(ev.index))
		e.recycle(ev)
	}
}

// recycle returns a dequeued event to the free list. The Handler
// reference is dropped so its captures can be collected; canceled stays
// set until reuse so stale Canceled() reads stay truthful.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	e.free = append(e.free, ev)
}

// CloneInto copies e's clock, sequence counter, fired count and pending
// queue into dst, a fresh engine whose model registered the same typed
// handlers in the same order, so every Kind means the same thing on
// both. Each *held names a pending event of e (or nil) and is rewritten
// to dst's copy of it: the model's stored handles, such as a timer it
// may cancel, must follow it into the clone. Closure events cannot be
// copied, since their handlers capture the original model, so a queue
// holding one is refused. CloneInto must not run mid-batch, that is
// from inside a handler.
func (e *Engine) CloneInto(dst *Engine, held ...**Event) error {
	if len(dst.table) != len(e.table) {
		return fmt.Errorf("sim: clone target has %d event kinds, source has %d", len(dst.table)-1, len(e.table)-1)
	}
	if len(dst.queue) != 0 {
		return fmt.Errorf("sim: clone target already holds %d events", len(dst.queue))
	}
	evs := make([]Event, len(e.queue))
	q := make(eventQueue, len(e.queue))
	for i, ev := range e.queue {
		if ev.kind == 0 {
			return fmt.Errorf("sim: cannot clone a closure event (at %v)", ev.when)
		}
		evs[i] = *ev
		q[i] = &evs[i]
	}
	for _, h := range held {
		if *h == nil {
			continue
		}
		i := (*h).index
		if i < 0 || int(i) >= len(e.queue) || e.queue[i] != *h {
			return fmt.Errorf("sim: held event at %v is not pending", (*h).when)
		}
		*h = q[i]
	}
	dst.now, dst.seq, dst.fired = e.now, e.seq, e.fired
	dst.queue = q
	return nil
}

// eventBytes is the encoded size of one pending event (see AppendState).
const eventBytes = 5 * 8

// AppendState appends the engine's clock, sequence counter, fired count
// and pending typed events in canonical (when, seq) order, then, for
// each held handle, its position in that order (-1 for nil).
// The pending order, not the heap layout, fixes the future: the heap
// pops events in that order whatever its array looks like, so two
// engines that will fire the same events encode to the same bytes.
// Like CloneInto it refuses closure events and a held handle that is
// not pending, and must not run from inside a handler.
func (e *Engine) AppendState(enc *snapbuf.Encoder, held ...*Event) error {
	evs := append(make([]*Event, 0, len(e.queue)), e.queue...)
	sort.Slice(evs, func(i, j int) bool { return evs[i].before(evs[j]) })
	enc.I64(int64(e.now))
	enc.U64(e.seq)
	enc.U64(e.fired)
	enc.I64(int64(len(evs)))
	for _, ev := range evs {
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
			for i, ev := range evs {
				if ev == h {
					pos = i
					break
				}
			}
			if pos < 0 {
				return fmt.Errorf("sim: held event at %v is not pending", h.when)
			}
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
	if len(e.queue) != 0 || e.seq != 0 {
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
		ev.index = -1
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
	e.queue = make(eventQueue, 0, len(evs))
	for i := range evs {
		e.queue.push(&evs[i]) // sorted input: every push stays a leaf
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
	for _, ev := range e.queue {
		if !valid(ev.kind, ev.a0, ev.a1) {
			return fmt.Errorf("sim: corrupt payload (%d, %d) for event kind %d at %v", ev.a0, ev.a1, ev.kind, ev.when)
		}
	}
	return nil
}

// fire dispatches one dequeued event: typed events jump through the
// table, closure events call fn. The Event is recycled before the
// handler runs, exactly as the pre-jump-table engine did.
func (e *Engine) fire(ev *Event) {
	e.fired++
	kind, a0, a1, fn := ev.kind, ev.a0, ev.a1, ev.fn
	e.recycle(ev)
	if kind != 0 {
		e.table[kind](e.now, a0, a1)
	} else {
		fn(e.now)
	}
}

// Step executes the single next event, advancing the clock to its time.
// It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.popMin()
	if ev.when < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.when
	e.fire(ev)
	return true
}

// drainBatch executes every event scheduled for the next pending
// instant. A lone event at the instant — the overwhelmingly common case
// — takes a short path; otherwise the same-timestamp run is popped into
// a reusable buffer up front: one clock update and one backwards-check
// cover the whole run, and the heap repairs happen before handlers push
// replacement events on top. An event the run's own handlers schedule
// for the same instant has a later sequence number than every batched
// event, so it fires after them, in a later drain, exactly as popping
// one event at a time would order it.
func (e *Engine) drainBatch() {
	q := &e.queue
	ev := q.popMin()
	if ev.when < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.when
	t := ev.when
	if len(*q) == 0 || (*q)[0].when != t {
		e.fire(ev)
		return
	}
	batch := append(e.batch[:0], ev)
	for len(*q) > 0 && (*q)[0].when == t {
		batch = append(batch, q.popMin())
	}
	for _, ev := range batch {
		if ev.canceled {
			// Canceled while waiting in the batch (index -1, so Cancel
			// could not remove it from the queue itself).
			e.recycle(ev)
			continue
		}
		e.fire(ev)
	}
	e.batch = batch[:0]
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
	for len(e.queue) > 0 && e.queue[0].when <= when {
		e.drainBatch()
	}
	e.now = when
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for len(e.queue) > 0 {
		e.drainBatch()
	}
}
