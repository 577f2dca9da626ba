package server

import (
	"repro/internal/cstate"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Clone returns an independent copy of the instance at its current
// interval boundary: the same clock, pending events, C-state machines,
// governor predictions, request rings, RNG stream positions, turbo
// budget, collector state and interval history. Stepping the clone and
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
	c.hist = append([]intervalRecord(nil), ins.hist...)
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
