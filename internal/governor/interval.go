package governor

import (
	"errors"
	"math"

	"repro/internal/cstate"
	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// IntervalGovernor is a closer analogue of the Linux menu governor's
// "typical interval" detection: it keeps the last eight idle durations,
// repeatedly discards outliers beyond one standard deviation, and uses
// the surviving mean as its prediction. Irregular streams therefore
// predict short (stay shallow) while genuinely periodic idle patterns
// unlock deep states — exactly the behaviour the paper's baseline
// measurements reflect.
type IntervalGovernor struct {
	catalog *cstate.Catalog
	buf     [8]float64
	n       int
	pos     int
}

// NewIntervalGovernor returns an interval-buffer governor.
func NewIntervalGovernor(c *cstate.Catalog) *IntervalGovernor {
	return &IntervalGovernor{catalog: c}
}

// Name implements Governor.
func (g *IntervalGovernor) Name() string { return PolicyInterval }

// Clone implements Governor.
func (g *IntervalGovernor) Clone() Governor {
	c := *g
	return &c
}

// AppendState implements Governor: the interval buffer, its fill and
// its write position.
func (g *IntervalGovernor) AppendState(e *snapbuf.Encoder) {
	for _, v := range g.buf {
		e.F64(v)
	}
	e.I64(int64(g.n))
	e.I64(int64(g.pos))
}

// DecodeState implements Governor. A fill or position outside the
// buffer is corrupt.
func (g *IntervalGovernor) DecodeState(d *snapbuf.Decoder) {
	var buf [8]float64
	for i := range buf {
		buf[i] = d.F64()
	}
	n, pos := d.I64(), d.I64()
	if d.Err() != nil {
		return
	}
	if n < 0 || n > int64(len(buf)) || pos < 0 || pos >= int64(len(buf)) {
		d.Fail(errors.New("governor: corrupt interval buffer"))
		return
	}
	g.buf, g.n, g.pos = buf, int(n), int(pos)
}

// Observe implements Governor.
func (g *IntervalGovernor) Observe(idle sim.Time) {
	g.buf[g.pos] = float64(idle)
	g.pos = (g.pos + 1) % len(g.buf)
	if g.n < len(g.buf) {
		g.n++
	}
}

// Predict returns the typical-interval estimate in ns (0 before any
// observation, which keeps selection shallow).
func (g *IntervalGovernor) Predict() sim.Time {
	if g.n == 0 {
		return 0
	}
	vals := make([]float64, 0, g.n)
	vals = append(vals, g.buf[:g.n]...)
	// Outlier-trim up to three times, as the kernel does.
	for round := 0; round < 3 && len(vals) > 2; round++ {
		mean, sd := meanStd(vals)
		if sd <= mean/8 {
			// Stable pattern: trust the mean.
			return sim.Time(mean)
		}
		kept := vals[:0]
		for _, v := range vals {
			if math.Abs(v-mean) <= sd {
				kept = append(kept, v)
			}
		}
		if len(kept) == len(vals) {
			break
		}
		vals = kept
	}
	mean, sd := meanStd(vals)
	if sd > mean/2 {
		// Still irregular: predict conservatively short.
		return sim.Time(mean / 2)
	}
	return sim.Time(mean)
}

func meanStd(vals []float64) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		d := v - mean
		sd += d * d
	}
	sd = math.Sqrt(sd / float64(len(vals)))
	return mean, sd
}

// Select implements Governor.
func (g *IntervalGovernor) Select(now sim.Time, menu []cstate.ID) cstate.ID {
	id, _ := g.catalog.DeepestByResidency(menu, g.Predict())
	return id
}

// PolicyInterval names the interval-buffer policy.
const PolicyInterval = "interval"
