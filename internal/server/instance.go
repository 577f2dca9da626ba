package server

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Instance is a resumable server simulation: one Sim constructed once
// and run interval by interval through RunInterval, carrying engine
// time, per-core C-state residency, request rings, RNG streams and
// collector state across calls. Interval N+1 continues exactly where
// interval N stopped — pending arrivals, in-flight requests and
// background timers survive the boundary — so a whole scenario pays the
// configured warmup exactly once, at startup, instead of once per
// epoch.
//
// The offered load is piecewise-constant: each RunInterval names its
// window's rate, overriding Config.RatePerSec/Schedule (which
// NewInstance clears). Under an unchanged rate an interval boundary is
// event-for-event invisible: RunInterval(a) followed by RunInterval(b)
// replays the identical event sequence as a single RunInterval(a+b)
// (property-tested across every load generator and dispatch policy).
// RunConfig is the first interval of an instance.
//
// With park-on-zero-rate enabled, a zero-rate interval is simulated as
// a real node quiesce rather than approximated by an energy penalty:
// in-flight requests drain, cores transition into the deepest menu
// state (paying real exit/entry flows on the way down), OS housekeeping
// goes tickless, and the package idle model engages. When load returns,
// the first arrivals find their cores in deep idle and pay the measured
// exit latency.
//
// An Instance is not safe for concurrent use; run each instance from
// one goroutine (the cluster layer gives every node its own).
type Instance struct {
	s       *Sim
	park    bool
	started bool
	index   int
	// preSnoops is the snoop count before the current interval, so each
	// IntervalResult reports its own window's snoops (interval 0, which
	// is what RunConfig reports, counts warmup snoops too).
	preSnoops uint64
	// orig is the construction config exactly as handed to NewInstance
	// (rate/schedule zeroed, defaults NOT applied) — what Snapshot
	// serializes, so Restore rebuilds through the identical
	// NewInstance(orig) path before it decodes the warm state.
	orig Config
}

// IntervalResult is one RunInterval measurement.
type IntervalResult struct {
	// Index counts intervals from 0.
	Index int
	// Start and End bound the measured window on the instance's engine
	// clock (interval 0 starts at Config.Warmup).
	Start, End sim.Time
	// RateQPS is the interval's offered rate.
	RateQPS float64
	// Parked reports whether the node was parked for this window.
	Parked bool
	// Result is the interval's full measurement. Config.RatePerSec and
	// Config.Duration reflect the interval, so a warm interval result is
	// field-for-field comparable with a RunConfig run of that window.
	Result Result
	// Down reports a crash interval: the node's instance was discarded
	// and nothing was simulated — Result is zero, the window simply
	// elapsed with the node dark.
	Down bool
	// Restarted reports that this interval is the first after a crash:
	// the instance was rebuilt cold (fresh C-state/ring/RNG/collector
	// state) and re-paid its warmup-free cold start.
	Restarted bool
}

// NewInstance constructs a resumable simulation from the config.
// Config.RatePerSec, Schedule and Duration are ignored — every interval
// brings its own rate and window (RunConfig alone keeps the Schedule,
// for its one interval); Warmup is paid once, inside the first
// RunInterval. parkOnZeroRate makes zero-rate intervals quiesce the
// node (see the Instance doc). A closed-loop instance is resumable like
// any other but its load is an emergent property of connections and
// think time — RunInterval's rate is ignored — so parkOnZeroRate is
// rejected for it: a "parked" node still serving closed-loop traffic
// would be a nonsense measurement.
func NewInstance(cfg Config, parkOnZeroRate bool) (*Instance, error) {
	cfg.RatePerSec = 0
	cfg.Schedule = nil
	return newInstance(cfg, parkOnZeroRate)
}

// newInstance is NewInstance for a config that may keep its RatePerSec
// and Schedule: RunConfig's one interval validates the rate and, under
// a schedule, looks it up arrival by arrival.
func newInstance(cfg Config, parkOnZeroRate bool) (*Instance, error) {
	if parkOnZeroRate {
		if d := cfg.Defaults(); d.LoadGen == LoadClosedLoop || d.ClosedLoopConnections > 0 {
			return nil, fmt.Errorf("server: closed-loop load cannot park on zero rate (its load ignores interval rates)")
		}
	}
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	return &Instance{s: s, park: parkOnZeroRate, orig: cfg}, nil
}

// Clock returns the instance's current simulation time.
func (ins *Instance) Clock() sim.Time { return ins.s.eng.Now() }

// Parked reports whether the instance is currently in a parked window.
func (ins *Instance) Parked() bool { return ins.s.parked }

// QueueDepth returns the instantaneous total backlog — queued plus
// executing requests across every core — at the instance's current
// clock. Unlike Result.MaxQueueDepth (the window's worst single-core
// backlog) this is a point sample of live state, the signal a fleet
// control plane reads at an epoch boundary: a node that ended its epoch
// with work still queued is lagging the offered load even if its
// window-mean measurements look healthy.
func (ins *Instance) QueueDepth() int {
	depth := 0
	for _, c := range ins.s.cores {
		depth += c.Load()
	}
	return depth
}

// SetServiceInflation installs (or clears) a straggler fault: every
// request dispatched while factor > 1 has its sampled service demand
// multiplied by factor. Factor <= 1 restores healthy service times.
// Takes effect for requests dispatched after the call; in-flight work
// is unaffected. The service-time RNG stream is not perturbed — the
// straggler grinds through the same request sequence, just slower.
func (ins *Instance) SetServiceInflation(factor float64) {
	ins.s.inflate = factor
}

// SetTurboCap installs (or clears) a thermal-throttling fault: while on,
// boosted service slices run at base + capFrac·(turbo − base) instead of
// the full turbo ceiling (capFrac in [0, 1); 0 pins boost to base
// frequency). Power and speedup at the capped frequency are derived by
// the same expressions the healthy constants use. Takes effect for
// slices started after the call.
func (ins *Instance) SetTurboCap(on bool, capFrac float64) {
	ins.s.setThrottle(on, capFrac)
}

// RunInterval advances the simulation by window at the given offered
// rate and returns the window's measurement. The first call starts the
// generators and runs Config.Warmup before its measured window; later
// calls resume instantly from the previous interval's end state.
func (ins *Instance) RunInterval(window sim.Time, rate float64) (IntervalResult, error) {
	if window <= 0 {
		return IntervalResult{}, fmt.Errorf("server: non-positive interval window %d", window)
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return IntervalResult{}, fmt.Errorf("server: invalid interval rate %g", rate)
	}
	s := ins.s
	// Reject a window the simulation clock cannot hold before touching
	// any state, so an over-long request leaves the instance resumable.
	limit := sim.MaxTime - s.eng.Now()
	if !ins.started {
		limit -= s.cfg.Warmup
	}
	if window > limit {
		return IntervalResult{}, fmt.Errorf("server: interval window %d overflows the simulation clock (%d remaining)", window, limit)
	}
	if !ins.started {
		ins.started = true
		s.instRate = rate
		if ins.park && rate == 0 {
			s.park(0)
		}
		s.gen.Start(s)
		s.startBackground()
		s.eng.RunTo(s.cfg.Warmup) // the scenario's one warmup
	} else {
		now := s.eng.Now()
		s.setIntervalRate(now, rate)
		if ins.park {
			if rate == 0 && !s.parked {
				s.park(now)
			} else if rate > 0 && s.parked {
				s.unpark(now)
			}
		}
	}
	start := s.eng.Now()
	s.col.begin(s)
	end := start + window
	s.eng.RunTo(end)
	res := s.col.collect(s, end)
	res.Config.RatePerSec = rate
	res.Config.Duration = window
	res.SnoopsServed = s.snoopsServed - ins.preSnoops
	ins.preSnoops = s.snoopsServed
	out := IntervalResult{
		Index:   ins.index,
		Start:   start,
		End:     end,
		RateQPS: rate,
		Parked:  ins.park && s.parked,
		Result:  res,
	}
	ins.index++
	return out, nil
}
