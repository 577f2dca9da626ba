package server

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// Load-generator names accepted by Config.LoadGen.
const (
	// LoadOpenLoop issues Poisson (or profile-defined) arrivals at
	// Config.RatePerSec regardless of completions — the Mutilate agent's
	// open-loop mode the paper measures under.
	LoadOpenLoop = "open-loop"
	// LoadClosedLoop runs Config.ClosedLoopConnections connections, each
	// issuing its next request one think time after its previous
	// response (the Mutilate closed-loop model).
	LoadClosedLoop = "closed-loop"
	// LoadBursty is an on/off modulated open loop: exponentially
	// distributed ON bursts separated by silent OFF gaps, with the burst
	// rate scaled so the long-run average still equals Config.RatePerSec.
	// OFF gaps are long enough for cores to reach deep C-states, so the
	// same average load produces a very different residency picture.
	LoadBursty = "bursty"
)

// LoadGens lists the built-in load-generator names.
func LoadGens() []string {
	return []string{LoadOpenLoop, LoadClosedLoop, LoadBursty}
}

// LoadGen drives request arrivals into a simulation. Implementations draw
// all randomness from the Sim's arrival stream, keeping runs reproducible
// from the single run seed.
type LoadGen interface {
	// Name identifies the generator.
	Name() string
	// register installs the generator's typed event kinds on the Sim's
	// engine (called once from Sim construction, before Start).
	register(s *Sim)
	// Start schedules the generator's initial events on the engine.
	Start(s *Sim)
	// OnComplete is invoked when the foreground request of connection
	// conn finishes; open-loop generators ignore it, closed-loop ones
	// schedule the connection's next request.
	OnComplete(s *Sim, conn int, now sim.Time)
	// clone returns an independent copy carrying the generator's state
	// (see Instance.Clone); appendState and decodeState carry the same
	// state through a snapshot (see Instance.Snapshot).
	clone() LoadGen
	appendState(e *snapbuf.Encoder)
	decodeState(d *snapbuf.Decoder)
}

// newLoadGen constructs the named generator.
func newLoadGen(cfg Config) (LoadGen, error) {
	switch cfg.LoadGen {
	case LoadOpenLoop:
		return openLoopGen{}, nil
	case LoadClosedLoop:
		if cfg.ClosedLoopConnections <= 0 {
			return nil, fmt.Errorf("server: closed-loop load needs ClosedLoopConnections > 0")
		}
		return closedLoopGen{}, nil
	case LoadBursty:
		return &burstyGen{
			onMean:  float64(cfg.BurstOnTime),
			offMean: float64(cfg.BurstOffTime),
		}, nil
	default:
		return nil, fmt.Errorf("server: unknown load generator %q (known: %v)", cfg.LoadGen, LoadGens())
	}
}

// openLoopGen reproduces the seed simulator's open-loop path exactly: one
// profile-defined gap draw per arrival, starting from time zero.
type openLoopGen struct{}

func (openLoopGen) Name() string { return LoadOpenLoop }

func (openLoopGen) register(s *Sim) {
	// a0 != 0 marks a silent probe: the generator slept through a
	// zero-rate schedule phase and wakes at the phase boundary without
	// dispatching a request.
	s.kArrival = s.eng.RegisterKind(func(now sim.Time, a0, _ uint64) {
		s.openLoopArrival(now, a0 != 0)
	})
}

func (openLoopGen) Start(s *Sim) { s.openLoopNext(0) }

func (openLoopGen) OnComplete(*Sim, int, sim.Time) {}

func (g openLoopGen) clone() LoadGen { return g }

func (openLoopGen) appendState(*snapbuf.Encoder) {}
func (openLoopGen) decodeState(*snapbuf.Decoder) {}

// openLoopArrival dispatches one request (unless this is a zero-rate
// phase probe) and schedules the next.
func (s *Sim) openLoopArrival(now sim.Time, probe bool) {
	s.arrEvent = nil // this event just fired; drop the stale handle
	if !probe {
		s.dispatch(now, -1)
	}
	s.openLoopNext(now)
}

// zeroRateProbe bounds how far the generator sleeps through a zero-rate
// instant: a ramp phase that *starts* at rate zero turns positive
// immediately inside the phase, so probing only at phase boundaries
// would skip it entirely.
const zeroRateProbe = sim.Millisecond

// openLoopNext schedules the next open-loop event after now. Without a
// schedule the rate is the interval's instRate: piecewise-constant and
// changed only at RunInterval boundaries (setIntervalRate cancels and
// redraws there), so no probing or censoring is needed, and a zero rate
// schedules nothing until the rate returns. With one, the rate is looked
// up at now — a piecewise-constant-per-gap approximation of the
// schedule's rate function. A zero rate schedules a probe (the next
// phase boundary or zeroRateProbe, whichever is sooner) instead of an
// arrival; a drawn gap that overshoots the next rate change is censored
// there and redrawn — the exponential's memorylessness makes that the
// standard piecewise non-homogeneous Poisson construction, and it keeps
// the generator live across phases whose opening rate is tiny (a naive
// draw at, say, 1 QPS would sleep past the whole schedule).
func (s *Sim) openLoopNext(now sim.Time) {
	rate := s.instRate
	sch := s.cfg.Schedule
	if sch != nil {
		rate = sch.RateAt(now)
		if rate <= 0 {
			next := sch.NextChange(now)
			if probe := now + zeroRateProbe; probe < next {
				next = probe
			}
			if next < sim.MaxTime {
				s.eng.ScheduleKindAt(next, s.kArrival, 1, 0)
			}
			return
		}
	}
	if rate <= 0 {
		return
	}
	gap := s.cfg.Profile.Arrivals.NextGap(s.arrRand, rate)
	if sch != nil {
		if next := sch.NextChange(now); next < sim.MaxTime && gap > next-now {
			s.eng.ScheduleKindAt(next, s.kArrival, 1, 0)
			return
		}
	}
	if gap < sim.MaxTime-now {
		s.arrEvent = s.eng.ScheduleKind(gap, s.kArrival, 0, 0)
	}
}

// closedLoopGen models Mutilate agents: N connections, exponential think
// times, next request issued only after the previous response.
type closedLoopGen struct{}

func (closedLoopGen) Name() string { return LoadClosedLoop }

func (closedLoopGen) register(s *Sim) {
	s.kConn = s.eng.RegisterKind(func(now sim.Time, conn, _ uint64) {
		s.dispatch(now, int(conn))
	})
}

func (closedLoopGen) Start(s *Sim) {
	for i := 0; i < s.cfg.ClosedLoopConnections; i++ {
		// Stagger connection starts across one think time.
		start := sim.Time(s.arrRand.Exp(float64(s.cfg.ThinkTime))) + 1
		s.eng.ScheduleKindAt(start, s.kConn, uint64(i), 0)
	}
}

func (g closedLoopGen) clone() LoadGen { return g }

func (closedLoopGen) appendState(*snapbuf.Encoder) {}
func (closedLoopGen) decodeState(*snapbuf.Decoder) {}

func (closedLoopGen) OnComplete(s *Sim, conn int, now sim.Time) {
	think := sim.Time(s.arrRand.Exp(float64(s.cfg.ThinkTime)))
	if think < 1 {
		think = 1
	}
	s.eng.ScheduleKind(think, s.kConn, uint64(conn), 0)
}

// burstyGen alternates exponentially distributed ON bursts (Poisson
// arrivals at curRate) with silent OFF gaps. Each ON window's rate is
// derived at burst start from the interval's rate (or the schedule's),
// so the on/off texture persists while the envelope follows the load.
type burstyGen struct {
	onMean  float64 // mean burst length (ns)
	offMean float64 // mean silent gap (ns)
	// curRate is the active ON-window rate (1/s), set at each burst
	// start.
	curRate float64
}

func (*burstyGen) Name() string { return LoadBursty }

func (g *burstyGen) register(s *Sim) {
	s.kBurst = s.eng.RegisterKind(func(now sim.Time, _, _ uint64) {
		g.burst(s, now)
	})
	// a0 carries the ON-window end so in-window arrivals need no state
	// beyond the generator itself. A parked node suppresses the dispatch
	// (like OS noise): an ON window straddling the park boundary would
	// otherwise keep serving at the stale burst rate while the node is
	// reported quiesced. The chain still ticks to the window end; the
	// next burst re-derives a zero rate and emits nothing.
	s.kBurstArrive = s.eng.RegisterKind(func(now sim.Time, end, _ uint64) {
		if !s.parked {
			s.dispatch(now, -1)
		}
		g.arrive(s, now, sim.Time(end))
	})
}

func (g *burstyGen) Start(s *Sim) {
	s.eng.ScheduleKindAt(1, s.kBurst, 0, 0)
}

func (*burstyGen) OnComplete(*Sim, int, sim.Time) {}

func (g *burstyGen) clone() LoadGen {
	c := *g
	return &c
}

// appendState appends the active ON-window rate; the burst shape is
// construction input.
func (g *burstyGen) appendState(e *snapbuf.Encoder) { e.F64(g.curRate) }

func (g *burstyGen) decodeState(d *snapbuf.Decoder) {
	r := d.F64()
	if d.Err() == nil && !(r >= 0 && !math.IsInf(r, 1)) {
		d.Fail(errors.New("server: corrupt burst rate"))
		return
	}
	g.curRate = r
}

// burst runs one ON window starting now and schedules the next burst
// after an OFF gap. The window's burst rate scales the offered rate at
// window start (the interval's, or the schedule phase's) so the
// long-run average is the offered rate; zero-rate windows keep the
// on/off clock ticking but emit no arrivals.
func (g *burstyGen) burst(s *Sim, now sim.Time) {
	rate := s.instRate
	if s.cfg.Schedule != nil {
		rate = s.cfg.Schedule.RateAt(now)
	}
	g.curRate = rate * (g.onMean + g.offMean) / g.onMean
	dur := sim.Time(s.arrRand.Exp(g.onMean))
	if dur < 1 {
		dur = 1
	}
	end := now + dur
	if g.curRate > 0 {
		g.arrive(s, now, end)
	}
	gap := sim.Time(s.arrRand.Exp(g.offMean))
	if gap < 1 {
		gap = 1
	}
	if end < sim.MaxTime-gap {
		s.eng.ScheduleKindAt(end+gap, s.kBurst, 0, 0)
	}
}

// arrive schedules the next arrival within the ON window [from, end].
func (g *burstyGen) arrive(s *Sim, from, end sim.Time) {
	gap := sim.Time(s.arrRand.Exp(1e9 / g.curRate))
	if gap < 1 {
		gap = 1
	}
	t := from + gap
	if t > end {
		return
	}
	s.eng.ScheduleKindAt(t, s.kBurstArrive, uint64(end), 0)
}
