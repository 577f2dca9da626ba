// Package scenario describes time-varying offered load as a piecewise
// schedule of phases — the workload class the stationary simulator
// misses. Real latency-critical fleets see their utilization change over
// the day (diurnal swings, traffic spikes, deploy ramps), and it is
// exactly during the troughs and transitions that deep-idle states and
// fleet consolidation decisions pay off or backfire.
//
// A Schedule is a contiguous list of Phases. Each phase lasts Duration
// and interpolates its rate linearly from StartRate to EndRate, so a
// schedule is a piecewise-linear rate function of simulated time: a
// constant phase is StartRate == EndRate, a ramp has them differ, a step
// spike is three constant phases, and a diurnal sine is sampled into
// linear segments. Piecewise linearity keeps every integral analytic:
// Requests (the expected request count over a window) and AvgRate are
// exact, which is what the epoch-stepped cluster dispatcher and the
// conservation fuzz tests rely on.
//
// Schedules are immutable after construction and safe for concurrent
// use. Time is the simulator's clock (nanoseconds from run start);
// beyond the last phase the schedule holds its final rate, so a sim
// window slightly longer than the schedule degrades gracefully.
package scenario

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
)

// Phase is one segment of a schedule: Duration of load interpolating
// linearly from StartRate to EndRate (requests per second).
type Phase struct {
	// Name labels the phase in reports ("trough", "spike", "h07", ...).
	Name string
	// Duration is the phase length (must be positive).
	Duration sim.Time
	// StartRate and EndRate bound the linear rate segment (QPS, >= 0).
	StartRate float64
	EndRate   float64
}

// constant reports whether the phase holds one rate.
func (p Phase) constant() bool { return p.StartRate == p.EndRate }

// rateAt interpolates the phase rate at offset dt into the phase.
func (p Phase) rateAt(dt sim.Time) float64 {
	if p.constant() {
		return p.StartRate
	}
	frac := float64(dt) / float64(p.Duration)
	return p.StartRate + (p.EndRate-p.StartRate)*frac
}

// requests integrates the phase rate over [a, b] (offsets into the
// phase, ns) and returns the expected request count — the trapezoid
// rule, exact for a linear segment.
func (p Phase) requests(a, b sim.Time) float64 {
	if b <= a {
		return 0
	}
	return (p.rateAt(a) + p.rateAt(b)) / 2 * float64(b-a) / 1e9
}

// Schedule is an immutable piecewise-linear load timeline.
type Schedule struct {
	name   string
	phases []Phase
	starts []sim.Time // starts[i] is phase i's absolute start offset
	total  sim.Time
}

// maxTotal bounds a schedule's length so cumulative starts can never
// overflow the simulator clock.
const maxTotal = sim.MaxTime / 4

// New validates and assembles a schedule from contiguous phases.
func New(name string, phases ...Phase) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("scenario %q: no phases", name)
	}
	s := &Schedule{
		name:   name,
		phases: append([]Phase(nil), phases...),
		starts: make([]sim.Time, len(phases)),
	}
	for i, p := range s.phases {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("scenario %q: phase %d (%s) has non-positive duration %d", name, i, p.Name, p.Duration)
		}
		if p.StartRate < 0 || p.EndRate < 0 ||
			math.IsNaN(p.StartRate) || math.IsNaN(p.EndRate) ||
			math.IsInf(p.StartRate, 0) || math.IsInf(p.EndRate, 0) {
			return nil, fmt.Errorf("scenario %q: phase %d (%s) has invalid rate %g..%g", name, i, p.Name, p.StartRate, p.EndRate)
		}
		s.starts[i] = s.total
		if p.Duration > maxTotal-s.total {
			return nil, fmt.Errorf("scenario %q: total duration overflows at phase %d", name, i)
		}
		s.total += p.Duration
	}
	return s, nil
}

// Name returns the schedule's label.
func (s *Schedule) Name() string { return s.name }

// Duration returns the total schedule length.
func (s *Schedule) Duration() sim.Time { return s.total }

// NumPhases returns the phase count.
func (s *Schedule) NumPhases() int { return len(s.phases) }

// Phases returns a copy of the phase list.
func (s *Schedule) Phases() []Phase { return append([]Phase(nil), s.phases...) }

// PhaseStart returns phase i's absolute start offset.
func (s *Schedule) PhaseStart(i int) sim.Time { return s.starts[i] }

// index returns the phase index containing time t (clamped to the
// schedule's ends).
func (s *Schedule) index(t sim.Time) int {
	if t < 0 {
		return 0
	}
	if t >= s.total {
		return len(s.phases) - 1
	}
	// Binary search for the last start <= t.
	lo, hi := 0, len(s.phases)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// PhaseAt returns the phase containing time t and its index. Before the
// schedule it returns the first phase; at or after the end, the last.
func (s *Schedule) PhaseAt(t sim.Time) (Phase, int) {
	i := s.index(t)
	return s.phases[i], i
}

// RateAt returns the offered rate (QPS) at time t. Before time zero it
// returns the first phase's start rate; at or after the end, the last
// phase's end rate.
func (s *Schedule) RateAt(t sim.Time) float64 {
	if t < 0 {
		return s.phases[0].StartRate
	}
	if t >= s.total {
		return s.phases[len(s.phases)-1].EndRate
	}
	i := s.index(t)
	return s.phases[i].rateAt(t - s.starts[i])
}

// NextChange returns the earliest time strictly after t at which the
// rate function can change (the next phase boundary), or sim.MaxTime
// when t is at or beyond the final phase. Load generators idling through
// a zero-rate phase use it to re-probe exactly when load can return.
func (s *Schedule) NextChange(t sim.Time) sim.Time {
	if t < 0 {
		return 0
	}
	for i := range s.starts {
		if s.starts[i] > t {
			return s.starts[i]
		}
	}
	if t < s.total {
		return s.total
	}
	return sim.MaxTime
}

// Requests integrates the rate over the window [t0, t1) and returns the
// expected request count. The window is clamped to the schedule (rate
// holds its boundary values outside), and the integral is exact for the
// piecewise-linear rate function, so request counts are conserved across
// any epoch partition of a window.
func (s *Schedule) Requests(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return 0
	}
	var total float64
	// Portion before the schedule: first phase's start rate.
	if t0 < 0 {
		pre := t1
		if pre > 0 {
			pre = 0
		}
		total += s.phases[0].StartRate * float64(pre-t0) / 1e9
		t0 = pre
		if t0 >= t1 {
			return total
		}
	}
	// Portion after the schedule: last phase's end rate.
	if t1 > s.total {
		post := t0
		if post < s.total {
			post = s.total
		}
		total += s.phases[len(s.phases)-1].EndRate * float64(t1-post) / 1e9
		t1 = post
		if t1 <= t0 {
			return total
		}
	}
	for i := s.index(t0); i < len(s.phases) && s.starts[i] < t1; i++ {
		a := t0 - s.starts[i]
		if a < 0 {
			a = 0
		}
		b := t1 - s.starts[i]
		if b > s.phases[i].Duration {
			b = s.phases[i].Duration
		}
		total += s.phases[i].requests(a, b)
	}
	return total
}

// AvgRate returns the mean offered rate (QPS) over [t0, t1).
func (s *Schedule) AvgRate(t0, t1 sim.Time) float64 {
	if t1 <= t0 {
		return s.RateAt(t0)
	}
	return s.Requests(t0, t1) * 1e9 / float64(t1-t0)
}

// PeakRate returns the largest rate the schedule reaches.
func (s *Schedule) PeakRate() float64 {
	var peak float64
	for _, p := range s.phases {
		if p.StartRate > peak {
			peak = p.StartRate
		}
		if p.EndRate > peak {
			peak = p.EndRate
		}
	}
	return peak
}

// Fingerprint returns a deterministic identity string: schedules with
// equal fingerprints produce identical rate functions. It feeds the
// runner's memoization key for simulations carrying a schedule. Names
// are length-prefixed: they come from user scenario files and may hold
// any separator, and unprefixed they could make two different phase
// lists print alike.
func (s *Schedule) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sched:%d:%s", len(s.name), s.name)
	for _, p := range s.phases {
		fmt.Fprintf(&b, "|%d:%s,%d,%g,%g", len(p.Name), p.Name, p.Duration, p.StartRate, p.EndRate)
	}
	return b.String()
}

// Constant returns a single-phase schedule holding rate for total — the
// stationary workload as a degenerate scenario. A constant schedule
// reproduces the stationary simulator bit-for-bit (golden-pinned).
func Constant(name string, rateQPS float64, total sim.Time) (*Schedule, error) {
	return New(name, Phase{Name: name, Duration: total, StartRate: rateQPS, EndRate: rateQPS})
}

// Ramp returns a single linear phase from fromQPS to toQPS over total —
// a deploy drain or gradual failover.
func Ramp(name string, fromQPS, toQPS float64, total sim.Time) (*Schedule, error) {
	return New(name, Phase{Name: name, Duration: total, StartRate: fromQPS, EndRate: toQPS})
}

// Spike returns base load with one step spike of base*mult during
// [spikeStart, spikeStart+spikeLen) — a retry storm or flash crowd.
func Spike(baseQPS, mult float64, total, spikeStart, spikeLen sim.Time) (*Schedule, error) {
	if spikeStart < 0 || spikeLen <= 0 || spikeStart+spikeLen > total {
		return nil, fmt.Errorf("scenario spike: window [%d,+%d) outside total %d", spikeStart, spikeLen, total)
	}
	var phases []Phase
	if spikeStart > 0 {
		phases = append(phases, Phase{Name: "pre", Duration: spikeStart, StartRate: baseQPS, EndRate: baseQPS})
	}
	spikeRate := baseQPS * mult
	phases = append(phases, Phase{Name: "spike", Duration: spikeLen, StartRate: spikeRate, EndRate: spikeRate})
	if rest := total - spikeStart - spikeLen; rest > 0 {
		phases = append(phases, Phase{Name: "post", Duration: rest, StartRate: baseQPS, EndRate: baseQPS})
	}
	return New("spike", phases...)
}

// Diurnal returns a sampled sine day compressed into total: rate(t) =
// base * (1 + swing*shape(t)) with the trough at t=0 and the peak at
// total/2, sampled into segments linear pieces named h00, h01, ... —
// "hours" of the compressed day. swing in [0,1) keeps rates positive.
func Diurnal(baseQPS, swing float64, total sim.Time, segments int) (*Schedule, error) {
	if segments < 2 {
		return nil, fmt.Errorf("scenario diurnal: need >= 2 segments, got %d", segments)
	}
	if swing < 0 || swing >= 1 {
		return nil, fmt.Errorf("scenario diurnal: swing %g out of [0,1)", swing)
	}
	rate := func(frac float64) float64 {
		// -cos puts the trough at frac 0 and the peak at frac 0.5.
		return baseQPS * (1 - swing*math.Cos(2*math.Pi*frac))
	}
	phases := make([]Phase, segments)
	seg := total / sim.Time(segments)
	if seg <= 0 {
		return nil, fmt.Errorf("scenario diurnal: total %d too short for %d segments", total, segments)
	}
	for i := range phases {
		dur := seg
		if i == segments-1 {
			dur = total - seg*sim.Time(segments-1) // absorb rounding
		}
		phases[i] = Phase{
			Name:      fmt.Sprintf("h%02d", i),
			Duration:  dur,
			StartRate: rate(float64(i) / float64(segments)),
			EndRate:   rate(float64(i+1) / float64(segments)),
		}
	}
	return New("diurnal", phases...)
}

// Named scenario names accepted by ByName.
const (
	NameConstant = "constant"
	NameDiurnal  = "diurnal"
	NameSpike    = "spike"
	NameRamp     = "ramp"
)

// Names lists the named scenario shapes.
func Names() []string {
	return []string{NameConstant, NameDiurnal, NameSpike, NameRamp}
}

// ByName builds a named scenario around a base rate over total:
//
//   - constant: baseQPS throughout (the stationary control).
//   - diurnal: a compressed day — 12 linear segments of a sine between
//     0.4x and 1.6x base, trough first, peak mid-day.
//   - spike: baseQPS with a 4x step spike over the middle fifth.
//   - ramp: linear growth from 0.25x to 1.75x base (mean = base).
func ByName(name string, baseQPS float64, total sim.Time) (*Schedule, error) {
	if total <= 0 {
		return nil, fmt.Errorf("scenario %q: non-positive duration %d", name, total)
	}
	switch name {
	case NameConstant:
		return Constant("steady", baseQPS, total)
	case NameDiurnal:
		return Diurnal(baseQPS, 0.6, total, 12)
	case NameSpike:
		return Spike(baseQPS, 4, total, total*2/5, total/5)
	case NameRamp:
		return Ramp("ramp", baseQPS*0.25, baseQPS*1.75, total)
	default:
		return nil, fmt.Errorf("scenario: unknown name %q (known: %v)", name, Names())
	}
}
