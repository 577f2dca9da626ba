package server

import (
	"repro/internal/cstate"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Collector owns every measurement artifact of a run: latency
// histograms, the completion counter, queue-depth tracking, and the
// pre-measurement snapshots that subtract warmup from residency and
// transition counts. The Sim model calls the note* hooks from its hot
// path; Collector turns them into a Result at the end of the window.
//
// Keeping measurement out of the model keeps the two independently
// replaceable: a future tracing or streaming-percentile collector can
// slot in without touching dispatch or C-state logic.
type Collector struct {
	measuring    bool
	measureStart sim.Time

	serverLat  *stats.Histogram
	e2eLat     *stats.Histogram
	wakeLat    *stats.Histogram
	queueLat   *stats.Histogram
	serviceLat *stats.Histogram
	completed  uint64

	maxQueueDepth int

	preTrans     [cstate.NumStates]uint64
	preResidency [cstate.NumStates]float64
	preCoreRes   [][cstate.NumStates]float64
}

func newCollector() *Collector {
	return &Collector{
		serverLat:  stats.NewHistogram(),
		e2eLat:     stats.NewHistogram(),
		wakeLat:    stats.NewHistogram(),
		queueLat:   stats.NewHistogram(),
		serviceLat: stats.NewHistogram(),
	}
}

// begin starts a measurement window: energy meters restart at the
// current per-core power, the histograms and counters are re-armed, and
// the residency/transition totals accumulated so far (warmup, or every
// window already measured by a resumable Instance) are snapshotted so
// collect can subtract them. begin is reusable: an Instance calls it
// once per interval against long-lived state, allocation-free after the
// first call.
func (col *Collector) begin(s *Sim) {
	col.measuring = true
	col.measureStart = s.eng.Now()
	now := int64(s.eng.Now())
	for _, c := range s.cores {
		// Reset energy and turbo accounting to the measurement window.
		c.meter.Reset(now, c.curPowerW)
		c.busyTime, c.turboBusyTime = 0, 0
	}
	s.uncoreMeter.Reset(now, s.uncorePower())
	s.pkgIdleTotal = 0
	if s.pkgActive {
		s.pkgIdleStart = s.eng.Now()
	}
	col.serverLat.Reset()
	col.e2eLat.Reset()
	col.wakeLat.Reset()
	col.queueLat.Reset()
	col.serviceLat.Reset()
	col.completed = 0
	col.maxQueueDepth = 0
	for id := 0; id < int(cstate.NumStates); id++ {
		var sum uint64
		for _, c := range s.cores {
			sum += c.machine.Transitions(cstate.ID(id))
		}
		col.preTrans[id] = sum
	}
	col.preResidency = s.residencySnapshot(col.measureStart)
	if col.preCoreRes == nil {
		col.preCoreRes = make([][cstate.NumStates]float64, len(s.cores))
	}
	for i, c := range s.cores {
		col.preCoreRes[i] = coreResidencySnapshot(c, col.measureStart)
	}
}

// noteDispatch records the post-enqueue backlog of the receiving core.
func (col *Collector) noteDispatch(c *coreRuntime) {
	if !col.measuring {
		return
	}
	if d := c.Load(); d > col.maxQueueDepth {
		col.maxQueueDepth = d
	}
}

// noteStart records the latency decomposition of a foreground request
// beginning service: wake penalty, queueing delay, and service time.
func (col *Collector) noteStart(req request, now sim.Time, dur sim.Time) {
	waited := now - req.arrival
	wake := req.wake
	if wake > waited {
		wake = waited
	}
	col.wakeLat.Add(wake.Micros())
	col.queueLat.Add((waited - wake).Micros())
	col.serviceLat.Add(dur.Micros())
}

// noteComplete records a foreground completion; netRTT is the sampled
// client<->server network latency added to the end-to-end figure.
func (col *Collector) noteComplete(req request, now sim.Time, netRTT sim.Time) {
	latUS := (now - req.arrival).Micros()
	col.serverLat.Add(latUS)
	col.e2eLat.Add(latUS + netRTT.Micros())
	col.completed++
}

// collect assembles the Result for the window ending at end.
func (col *Collector) collect(s *Sim, end sim.Time) Result {
	res := Result{Config: s.cfg, MeasuredDuration: end - col.measureStart}
	res.Config.Profile.Arrivals = s.profArrivals
	windowSec := (end - col.measureStart).Seconds()
	var totalEnergy float64
	var busy, turboBusy sim.Time
	for _, c := range s.cores {
		totalEnergy += c.meter.Energy(int64(end))
		busy += c.busyTime
		turboBusy += c.turboBusyTime
	}
	endSnap := s.residencySnapshot(end)
	var residencyNS [cstate.NumStates]float64
	for id := range residencyNS {
		residencyNS[id] = endSnap[id] - col.preResidency[id]
	}
	var totalNS float64
	for _, v := range residencyNS {
		totalNS += v
	}
	for id := range res.Residency {
		if totalNS > 0 {
			res.Residency[id] = residencyNS[id] / totalNS
		}
	}
	for id := 0; id < int(cstate.NumStates); id++ {
		var sum uint64
		for _, c := range s.cores {
			sum += c.machine.Transitions(cstate.ID(id))
		}
		if windowSec > 0 {
			res.TransitionsPerSec[id] = float64(sum-col.preTrans[id]) / windowSec
		}
	}
	if windowSec > 0 {
		res.AvgCorePowerW = totalEnergy / windowSec / float64(len(s.cores))
		res.CompletedPerSec = float64(col.completed) / windowSec
	}
	res.UncoreAvgW = s.uncoreMeter.AveragePower(int64(end))
	pkgIdle := s.pkgIdleTotal
	if s.pkgActive {
		pkgIdle += end - s.pkgIdleStart
	}
	if end > col.measureStart {
		res.PkgIdleFraction = float64(pkgIdle) / float64(end-col.measureStart)
	}
	res.PackagePowerW = res.AvgCorePowerW*float64(len(s.cores)) + res.UncoreAvgW
	res.EnergyJ = totalEnergy
	res.SnoopsServed = s.snoopsServed
	res.MaxQueueDepth = col.maxQueueDepth
	for i, c := range s.cores {
		cs := CoreStats{Core: i}
		snap := coreResidencySnapshot(c, end)
		var coreTotal float64
		for id := range snap {
			snap[id] -= col.preCoreRes[i][id]
			coreTotal += snap[id]
		}
		for id := range snap {
			if coreTotal > 0 {
				cs.Residency[id] = snap[id] / coreTotal
			}
		}
		if windowSec > 0 {
			cs.AvgPowerW = c.meter.Energy(int64(end)) / windowSec
		}
		res.PerCore = append(res.PerCore, cs)
	}
	res.Server = summarize(col.serverLat)
	res.EndToEnd = summarize(col.e2eLat)
	res.Breakdown = BreakdownSummary{
		Wake:    summarize(col.wakeLat),
		Queue:   summarize(col.queueLat),
		Service: summarize(col.serviceLat),
	}
	if busy > 0 {
		res.TurboFraction = float64(turboBusy) / float64(busy)
	}
	return res
}
