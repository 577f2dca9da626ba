package server

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cstate"
	"repro/internal/sim"
	"repro/internal/snapbuf"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Clone returns an independent copy of the instance at its current
// interval boundary: the same clock, pending events, C-state machines,
// governor predictions, request rings, RNG stream positions, turbo
// budget, collector state and interval numbering. Stepping the clone and
// the original through the same future yields bit-identical
// IntervalResults and Snapshot bytes, and neither can observe the
// other: every mutable object is copied, and only immutable
// construction inputs are shared (the C-state catalog, the platform
// menu and the profile's service distribution).
//
// A clone is O(state), not O(history): it is how a what-if fork or a
// class split takes a warm node without replaying how the node got
// there. A profile service backed by live mutable state (one that is
// not fingerprintable) stays shared, exactly as it is shared by every
// copy of its Profile.
func (ins *Instance) Clone() *Instance {
	c := *ins
	c.s = ins.s.clone()
	c.orig.Profile.Arrivals = cloneArrival(ins.orig.Profile.Arrivals)
	return &c
}

// cloneArrival copies a stateful arrival process (such as MMPP2's
// modulation state); stateless ones are shared.
func cloneArrival(a workload.ArrivalProcess) workload.ArrivalProcess {
	if ca, ok := a.(workload.CloneableArrival); ok {
		return ca.CloneArrival()
	}
	return a
}

// clone deep-copies the simulation. The copy gets a fresh engine whose
// typed handlers close over the copy, registered by newKinds in the
// original order so every Kind matches, and the original's pending
// events are copied into it with the held arrival and package-idle
// handles remapped to their copies.
func (s *Sim) clone() *Sim {
	c := *s
	c.cfg.Profile.Arrivals = cloneArrival(s.cfg.Profile.Arrivals)
	c.profArrivals = cloneArrival(s.profArrivals)
	c.arrRand, c.svcRand, c.netRand = s.arrRand.Clone(), s.svcRand.Clone(), s.netRand.Clone()
	budget, cpower, uncore := *s.budget, *s.cpower, *s.uncoreMeter
	c.budget, c.cpower, c.uncoreMeter = &budget, &cpower, &uncore
	c.gen = s.gen.clone()
	c.disp = s.disp.clone()
	c.col = s.col.clone()
	c.cores = make([]*coreRuntime, len(s.cores))
	for i, core := range s.cores {
		c.cores[i] = core.clone()
	}
	c.eng = sim.NewEngine()
	c.newKinds()
	if err := s.eng.CloneInto(c.eng, &c.arrEvent, &c.pkgEvent); err != nil {
		// The model schedules typed events only and holds no fired
		// handle, so this is a model bug, not an input error.
		panic("server: clone: " + err.Error())
	}
	return &c
}

// appendState appends everything clone copies, in the order
// decodeState reads it: the engine first (its clock bounds every time
// mark after it), then the scalar model state, meters, RNG streams,
// turbo budget, arrival modulation, generator, dispatcher, collector and
// cores. Construction-derived constants (kinds, the precomputed power
// and speedup tables, the deepest state) are not encoded: decodeState
// runs on a Sim newSim built from the same config.
func (s *Sim) appendState(e *snapbuf.Encoder) error {
	if err := s.eng.AppendState(e, s.arrEvent, s.pkgEvent); err != nil {
		return err
	}
	e.F64(s.instRate)
	e.Bool(s.parked)
	e.Bool(s.pkgIdleOn)
	e.F64(s.totalPwr)
	e.U64(s.snoopsServed)
	e.I64(int64(s.idleCores))
	e.Bool(s.pkgActive)
	e.I64(int64(s.pkgIdleStart))
	e.I64(int64(s.pkgIdleTotal))
	e.F64(s.inflate)
	e.Bool(s.throttled)
	e.F64(s.capFrac)
	s.uncoreMeter.AppendState(e)
	s.arrRand.AppendState(e)
	s.svcRand.AppendState(e)
	s.netRand.AppendState(e)
	s.budget.AppendState(e)
	if a, ok := s.cfg.Profile.Arrivals.(workload.CloneableArrival); ok {
		a.AppendState(e)
	}
	s.gen.appendState(e)
	s.disp.appendState(e)
	s.col.appendState(e)
	for _, c := range s.cores {
		c.appendState(e)
	}
	return nil
}

// decodeState overwrites the mutable state of s, fresh from newSim, with
// what appendState wrote. The constructor's engine already holds the
// cores' first idle entries, so a new engine with the same kinds takes
// its place. started says whether the instance has run an interval:
// only then do the cores hold background RNG streams. Besides the
// structural checks of each component, it rejects state that would
// panic or wedge a later step (checkRunnable). Errors go to d.
func (s *Sim) decodeState(d *snapbuf.Decoder, started bool) {
	s.eng = sim.NewEngine()
	s.newKinds()
	s.eng.DecodeState(d, &s.arrEvent, &s.pkgEvent)
	now := s.eng.Now()
	s.instRate = d.F64()
	s.parked = d.Bool()
	s.pkgIdleOn = d.Bool()
	s.totalPwr = d.F64()
	s.snoopsServed = d.U64()
	idleCores := d.I64()
	s.pkgActive = d.Bool()
	s.pkgIdleStart = sim.Time(d.I64())
	s.pkgIdleTotal = sim.Time(d.I64())
	s.inflate = d.F64()
	throttled, capFrac := d.Bool(), d.F64()
	s.uncoreMeter.DecodeState(d, int64(now))
	s.arrRand.DecodeState(d)
	s.svcRand.DecodeState(d)
	s.netRand.DecodeState(d)
	s.budget.DecodeState(d, int64(now))
	if a, ok := s.cfg.Profile.Arrivals.(workload.CloneableArrival); ok {
		a.DecodeState(d)
	}
	s.gen.decodeState(d)
	s.disp.decodeState(d, len(s.cores))
	s.col.decodeState(d, now, len(s.cores))
	noise := started && s.cfg.OSNoisePeriod > 0
	snoop := started && s.cfg.SnoopRatePerSec > 0
	for _, c := range s.cores {
		c.decodeState(d, now, noise, snoop)
	}
	if d.Err() != nil {
		return
	}
	switch {
	case !(s.instRate >= 0 && !math.IsInf(s.instRate, 1)):
		d.Fail(fmt.Errorf("server: corrupt interval rate %g", s.instRate))
	case idleCores < 0 || idleCores > int64(len(s.cores)):
		d.Fail(fmt.Errorf("server: corrupt idle-core count %d", idleCores))
	case s.pkgIdleStart > now || s.pkgIdleTotal < 0:
		d.Fail(errors.New("server: corrupt package idle state"))
	case !throttled && capFrac != 0:
		d.Fail(errors.New("server: corrupt throttle state"))
	}
	if d.Err() != nil {
		return
	}
	s.idleCores = int(idleCores)
	s.setThrottle(throttled, capFrac)
	if err := s.checkRunnable(); err != nil {
		d.Fail(err)
	}
}

// coreTimers counts one core's pending timers by kind.
type coreTimers struct{ entry, exit, complete, noise, snoop int }

// checkRunnable checks that the decoded pending events and the state
// they act on agree the way a run keeps them agreeing, so no later
// step can panic or wedge on them:
//
//   - every per-core event names a core in range, and a closed-loop
//     dispatch a connection in range;
//   - a core has exactly one entry timer while entering, one exit timer
//     while exiting, and neither otherwise;
//   - a busy core is active with exactly one completion pending, and a
//     core that is not busy has none;
//   - a core with a background stream has exactly one timer drawing
//     from it, and one without has none;
//   - the idle-core count is the number of idle cores, a resident
//     package idle state has every core idle, and the package timer is
//     the one pending package event;
//   - the held arrival handle is an arrival event.
func (s *Sim) checkRunnable() error {
	timers := make([]coreTimers, len(s.cores))
	pkg := 0
	err := s.eng.CheckPending(func(k sim.Kind, a0, _ uint64) bool {
		switch k {
		case s.kPkgIdle:
			pkg++
			return true
		case s.kConn:
			return a0 < uint64(s.cfg.ClosedLoopConnections)
		case s.kEntryDone, s.kExitDone, s.kComplete, s.kSnoopRet, s.kSnoopNext, s.kNoise:
		default:
			return true
		}
		if a0 >= uint64(len(s.cores)) {
			return false
		}
		t := &timers[a0]
		switch k {
		case s.kEntryDone:
			t.entry++
		case s.kExitDone:
			t.exit++
		case s.kComplete:
			t.complete++
		case s.kSnoopNext:
			t.snoop++
		case s.kNoise:
			t.noise++
		}
		return true
	})
	if err != nil {
		return err
	}
	one := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	idle := 0
	for i, c := range s.cores {
		ph, t := c.machine.Phase(), timers[i]
		if ph == cstate.PhaseIdle {
			idle++
		}
		switch {
		case t.entry != one(ph == cstate.PhaseEntering) || t.exit != one(ph == cstate.PhaseExiting):
			return fmt.Errorf("server: core %d holds %d entry and %d exit timers in phase %v", i, t.entry, t.exit, ph)
		case t.complete != one(c.busy) || (c.busy && ph != cstate.PhaseActive):
			return fmt.Errorf("server: core %d (busy %t, phase %v) holds %d completions", i, c.busy, ph, t.complete)
		case t.noise != one(c.noiseRng != nil) || t.snoop != one(c.snoopRng != nil):
			return fmt.Errorf("server: core %d holds %d noise and %d snoop timers for its streams", i, t.noise, t.snoop)
		}
	}
	switch {
	case s.idleCores != idle:
		return fmt.Errorf("server: idle-core count %d, %d cores idle", s.idleCores, idle)
	case s.pkgActive && idle != len(s.cores):
		return errors.New("server: package idle with a core awake")
	case pkg != one(s.pkgEvent != nil) || (s.pkgEvent != nil && s.pkgEvent.Kind() != s.kPkgIdle):
		return errors.New("server: corrupt package idle timer")
	case s.arrEvent != nil && s.arrEvent.Kind() != s.kArrival:
		return errors.New("server: held arrival is not an arrival event")
	}
	return nil
}

// clone deep-copies one core's runtime state.
func (cr *coreRuntime) clone() *coreRuntime {
	c := *cr
	c.machine = cr.machine.Clone()
	c.gov = cr.gov.Clone()
	meter := *cr.meter
	c.meter = &meter
	c.queue.buf = append([]request(nil), cr.queue.buf...)
	if cr.noiseRng != nil {
		c.noiseRng = cr.noiseRng.Clone()
	}
	if cr.snoopRng != nil {
		c.snoopRng = cr.snoopRng.Clone()
	}
	return &c
}

// appendState appends everything clone copies: the machine, governor
// and meter, the live requests in FIFO order, the request in execution,
// the scalar bookkeeping and the background streams (each behind a
// presence flag). Ring capacity and slot positions are not state.
func (cr *coreRuntime) appendState(e *snapbuf.Encoder) {
	cr.machine.AppendState(e)
	cr.gov.AppendState(e)
	cr.meter.AppendState(e)
	n := cr.queue.len()
	e.I64(int64(n))
	for i := 0; i < n; i++ {
		appendRequest(e, &cr.queue.buf[(cr.queue.head+uint32(i))&uint32(len(cr.queue.buf)-1)])
	}
	appendRequest(e, &cr.cur)
	e.Bool(cr.busy)
	e.I64(int64(cr.idleStart))
	e.F64(cr.curPowerW)
	e.I64(int64(cr.busyTime))
	e.I64(int64(cr.turboBusyTime))
	e.U64(cr.snoopGen)
	for _, r := range []*xrand.Rand{cr.noiseRng, cr.snoopRng} {
		e.Bool(r != nil)
		if r != nil {
			r.AppendState(e)
		}
	}
}

// decodeState loads what appendState wrote into a core newSim built.
// noise and snoop say whether the core must hold each background
// stream (it does once the instance has started and the process is
// configured); a presence flag that disagrees is corrupt.
func (cr *coreRuntime) decodeState(d *snapbuf.Decoder, now sim.Time, noise, snoop bool) {
	cr.machine.DecodeState(d, now)
	cr.gov.DecodeState(d)
	cr.meter.DecodeState(d, int64(now))
	n := d.Count(requestBytes)
	cr.queue = reqRing{}
	if n > 0 {
		size := 8
		for size < n {
			size *= 2
		}
		cr.queue.buf = make([]request, size)
		for i := 0; i < n; i++ {
			decodeRequest(d, &cr.queue.buf[i])
		}
		cr.queue.tail = uint32(n)
	}
	decodeRequest(d, &cr.cur)
	cr.busy = d.Bool()
	cr.idleStart = sim.Time(d.I64())
	cr.curPowerW = d.F64()
	cr.busyTime = sim.Time(d.I64())
	cr.turboBusyTime = sim.Time(d.I64())
	cr.snoopGen = d.U64()
	for _, bg := range []struct {
		r    **xrand.Rand
		want bool
	}{{&cr.noiseRng, noise}, {&cr.snoopRng, snoop}} {
		*bg.r = nil
		if has := d.Bool(); d.Err() == nil && has != bg.want {
			d.Fail(errors.New("server: corrupt background stream flag"))
		}
		if bg.want {
			*bg.r = xrand.New(0)
			(*bg.r).DecodeState(d)
		}
	}
}

// requestBytes is the encoded size of one request (see appendRequest).
const requestBytes = 4*8 + 1

// appendRequest appends one request by value.
func appendRequest(e *snapbuf.Encoder, r *request) {
	e.I64(int64(r.arrival))
	e.I64(int64(r.demand))
	e.Bool(r.background)
	e.I64(int64(r.wake))
	e.I64(int64(r.conn))
}

// decodeRequest reads what appendRequest wrote.
func decodeRequest(d *snapbuf.Decoder, r *request) {
	r.arrival = sim.Time(d.I64())
	r.demand = sim.Time(d.I64())
	r.background = d.Bool()
	r.wake = sim.Time(d.I64())
	r.conn = int(d.I64())
}

// clone deep-copies the collector's histograms and baselines.
func (col *Collector) clone() *Collector {
	c := *col
	c.serverLat = col.serverLat.Clone()
	c.e2eLat = col.e2eLat.Clone()
	c.wakeLat = col.wakeLat.Clone()
	c.queueLat = col.queueLat.Clone()
	c.serviceLat = col.serviceLat.Clone()
	c.preCoreRes = append([][cstate.NumStates]float64(nil), col.preCoreRes...)
	return &c
}

// appendState appends everything clone copies: the window marks, the
// five histograms, the counters and the pre-window baselines (the
// per-core ones behind a presence flag: begin allocates them once).
func (col *Collector) appendState(e *snapbuf.Encoder) {
	e.Bool(col.measuring)
	e.I64(int64(col.measureStart))
	for _, h := range col.hists() {
		h.AppendState(e)
	}
	e.U64(col.completed)
	e.I64(int64(col.maxQueueDepth))
	for _, v := range col.preTrans {
		e.U64(v)
	}
	for _, v := range col.preResidency {
		e.F64(v)
	}
	e.Bool(col.preCoreRes != nil)
	for _, row := range col.preCoreRes {
		for _, v := range row {
			e.F64(v)
		}
	}
}

// decodeState loads what appendState wrote into a fresh collector of a
// cores-core Sim whose clock is now. The per-core baselines exist
// exactly once a window has begun.
func (col *Collector) decodeState(d *snapbuf.Decoder, now sim.Time, cores int) {
	col.measuring = d.Bool()
	col.measureStart = sim.Time(d.I64())
	for _, h := range col.hists() {
		h.DecodeState(d)
	}
	col.completed = d.U64()
	maxDepth := d.I64()
	for i := range col.preTrans {
		col.preTrans[i] = d.U64()
	}
	for i := range col.preResidency {
		col.preResidency[i] = d.F64()
	}
	has := d.Bool()
	if d.Err() != nil {
		return
	}
	if has != col.measuring || col.measureStart < 0 || col.measureStart > now || maxDepth < 0 || maxDepth > math.MaxInt32 {
		d.Fail(errors.New("server: corrupt collector state"))
		return
	}
	col.maxQueueDepth = int(maxDepth)
	col.preCoreRes = nil
	if has {
		col.preCoreRes = make([][cstate.NumStates]float64, cores)
		for i := range col.preCoreRes {
			for j := range col.preCoreRes[i] {
				col.preCoreRes[i][j] = d.F64()
			}
		}
	}
}

// hists lists the collector's histograms in encoding order.
func (col *Collector) hists() [5]*stats.Histogram {
	return [5]*stats.Histogram{col.serverLat, col.e2eLat, col.wakeLat, col.queueLat, col.serviceLat}
}
