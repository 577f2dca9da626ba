// Package stats provides the measurement substrate: streaming moments,
// latency histograms with quantile queries, time-weighted accumulators
// for C-state residency, and energy integration.
//
// These mirror the quantities the paper collects from hardware counters:
// per-C-state residency and transition counts (Sec. 6.2), RAPL-style
// average power, and average/tail request latency.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/snapbuf"
)

// Stream accumulates streaming count/mean/variance/min/max using
// Welford's algorithm.
type Stream struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add records one sample. The moment update runs first so the common
// case (sample inside the seen range) falls through two untaken
// branches; the first-sample fixup is the cold path.
func (s *Stream) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	if s.n == 1 {
		s.min, s.max = x, x
		return
	}
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
}

// Count returns the number of samples recorded.
func (s *Stream) Count() uint64 { return s.n }

// Mean returns the sample mean, or 0 with no samples.
func (s *Stream) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance.
func (s *Stream) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Stream) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest sample, or 0 with no samples.
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Stream) Max() float64 { return s.max }

// Histogram is a log-linear histogram for non-negative values, in the
// style of HdrHistogram: values are bucketed with bounded relative error
// so that tail quantiles over microsecond-to-millisecond latencies stay
// accurate without storing samples.
type Histogram struct {
	// subBuckets per power of two; relative error is 1/subBuckets.
	// Always a power of two, so bucket indexing reduces to float64 bit
	// surgery (see bucketOf).
	subBuckets int
	// subShift is 52 - log2(subBuckets): shifting a float64's bit
	// pattern right by subShift leaves the top log2(subBuckets) mantissa
	// bits — the linear sub-bucket — in the low bits.
	subShift uint
	counts   []uint64
	n        uint64
	sum      float64
	max      float64
	min      float64
}

// NewHistogram returns a histogram with ~0.8% relative value error.
func NewHistogram() *Histogram {
	return &Histogram{subBuckets: 128, subShift: 45, min: math.Inf(1)}
}

// bucketOf indexes v by pulling the exponent and the top mantissa bits
// straight out of the float64 representation. For v >= 1 this computes
// what the previous Floor(Log2(v)) / Pow(2, exp) formulation computed —
// for v in [2^e, 2^(e+1)) the fraction (v-2^e)/2^e is exact (Sterbenz
// subtraction, power-of-two division), and truncating it to subBuckets
// steps selects precisely the top mantissa bits — without the ~50ns of
// transcendental math per sample. The lone divergence: for the last few
// ulps below a power of two, Log2 rounded up to the integer and the old
// code placed the sample one bucket high; the bit trick buckets such
// values correctly. Hitting one requires a sample within ~2^-50 of a
// power of two, which no pinned golden (and no realistic run) does.
func (h *Histogram) bucketOf(v float64) int {
	if v < 1 {
		return int(v * float64(h.subBuckets))
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023
	sub := int(bits>>h.subShift) & (h.subBuckets - 1)
	return (exp+1)*h.subBuckets + sub
}

// valueOf returns a representative (upper-edge midpoint) value for bucket i.
func (h *Histogram) valueOf(i int) float64 {
	if i < h.subBuckets {
		return (float64(i) + 0.5) / float64(h.subBuckets)
	}
	exp := i/h.subBuckets - 1
	sub := i % h.subBuckets
	base := math.Ldexp(1, exp)
	return base * (1 + (float64(sub)+0.5)/float64(h.subBuckets))
}

// Add records one non-negative sample. Negative samples are clamped to 0.
func (h *Histogram) Add(v float64) {
	if v < 0 {
		v = 0
	}
	b := h.bucketOf(v)
	if b >= len(h.counts) {
		h.growTo(b)
	}
	h.counts[b]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// growTo extends counts to cover bucket b (outlined to keep Add small
// enough to inline).
func (h *Histogram) growTo(b int) {
	grown := make([]uint64, b+1)
	copy(grown, h.counts)
	h.counts = grown
}

// Reset clears all recorded samples while keeping the grown bucket
// array, so a histogram re-armed for a new measurement interval records
// without re-allocating the buckets the previous interval grew.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.n = 0
	h.sum = 0
	h.max = 0
	h.min = math.Inf(1)
}

// Clone returns an independent copy of the histogram and its samples.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

// AppendState appends the histogram's samples: the nonzero buckets in
// index order as (index, count) pairs, then the sample count, sum, max
// and min. The bucket array's length is not state: quantiles skip empty
// buckets, and Add grows the array on demand.
func (h *Histogram) AppendState(e *snapbuf.Encoder) {
	nonzero := 0
	for _, c := range h.counts {
		if c != 0 {
			nonzero++
		}
	}
	e.Grow(8 + 16*nonzero + 4*8)
	e.I64(int64(nonzero))
	for i, c := range h.counts {
		if c != 0 {
			e.I64(int64(i))
			e.U64(c)
		}
	}
	e.U64(h.n)
	e.F64(h.sum)
	e.F64(h.max)
	e.F64(h.min)
}

// maxStateSample bounds the samples a decoded histogram may hold: the
// simulator records durations of its int64 clock, so every sample lies
// below 2^63. A bucket index past it is corrupt, which also caps what
// one decoded histogram allocates at 64 KiB.
const maxStateSample = 0x1p63

// DecodeState replaces h's samples with what AppendState wrote, keeping
// h's geometry. Bucket indices must increase strictly and stay below
// maxStateSample's bucket, counts must be nonzero and sum to the sample
// count. The bucket array is allocated up to the last nonzero bucket.
// Errors go to d.
func (h *Histogram) DecodeState(d *snapbuf.Decoder) {
	type bucket struct {
		i int64
		c uint64
	}
	buckets := make([]bucket, d.Count(16))
	limit := int64(h.bucketOf(maxStateSample))
	var total uint64
	prev := int64(-1)
	for k := range buckets {
		b := bucket{d.I64(), d.U64()}
		if d.Err() != nil {
			return
		}
		if b.i <= prev || b.i >= limit || b.c == 0 || total+b.c < total {
			d.Fail(fmt.Errorf("stats: corrupt histogram bucket %d (count %d)", b.i, b.c))
			return
		}
		total += b.c
		buckets[k] = b
		prev = b.i
	}
	n, sum, max, min := d.U64(), d.F64(), d.F64(), d.F64()
	if d.Err() != nil {
		return
	}
	if n != total {
		d.Fail(fmt.Errorf("stats: corrupt histogram: %d samples in buckets holding %d", n, total))
		return
	}
	h.counts = make([]uint64, prev+1)
	for _, b := range buckets {
		h.counts[b.i] = b.c
	}
	h.n, h.sum, h.max, h.min = n, sum, max, min
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact mean of recorded samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest recorded sample (exact).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest recorded sample (exact).
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Quantile returns the value at quantile q in [0,1], approximated to the
// histogram's relative error. Quantile(0.99) is the paper's tail latency.
// Callers that need several quantiles of one distribution should use
// Quantiles, which serves them all from a single bucket scan.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Clamp to the exact observed range so quantiles are
			// monotone with the exact Min/Max endpoints.
			return math.Min(math.Max(h.valueOf(i), h.min), h.max)
		}
	}
	return h.max
}

// Quantiles returns the value at each quantile in qs, answering all of
// them from one cumulative scan of the buckets instead of one scan per
// quantile. qs must be sorted in non-decreasing order (the natural order
// every caller already uses: p50, p95, p99, ...); it panics otherwise.
// Each returned value is bit-identical to Quantile(q).
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			panic("stats: Quantiles input not sorted")
		}
	}
	if h.n == 0 {
		return out
	}
	k := 0
	for k < len(qs) && qs[k] <= 0 {
		out[k] = h.Min()
		k++
	}
	var cum uint64
	for i, c := range h.counts {
		if k >= len(qs) || qs[k] >= 1 {
			break
		}
		cum += c
		for k < len(qs) && qs[k] < 1 && cum >= uint64(math.Ceil(qs[k]*float64(h.n))) {
			out[k] = math.Min(math.Max(h.valueOf(i), h.min), h.max)
			k++
		}
	}
	for ; k < len(qs); k++ {
		out[k] = h.Max()
	}
	return out
}

// Residency tracks time-weighted occupancy of a set of named states.
// It is the software analogue of the C-state residency counters
// (MSR_CORE_Cx_RESIDENCY) the paper reads.
type Residency struct {
	labels      []string
	timeIn      []int64 // ns
	transitions []uint64
	current     int
	since       int64
	started     int64
	closed      bool
}

// NewResidency creates a tracker over the given state labels, starting in
// state initial at time start (ns).
func NewResidency(labels []string, initial int, start int64) *Residency {
	if initial < 0 || initial >= len(labels) {
		panic("stats: initial state out of range")
	}
	return &Residency{
		labels:      append([]string(nil), labels...),
		timeIn:      make([]int64, len(labels)),
		transitions: make([]uint64, len(labels)),
		current:     initial,
		since:       start,
		started:     start,
	}
}

// Switch moves to state next at time now, accumulating time in the
// previous state. Switching to the current state is a no-op (no
// transition counted).
func (r *Residency) Switch(next int, now int64) {
	if now < r.since {
		panic("stats: residency time went backwards")
	}
	if next == r.current {
		// No-op switches exit before the bounds check: the current state
		// is always in range, so equality proves next is too.
		return
	}
	if uint(next) >= uint(len(r.labels)) {
		panic(fmt.Sprintf("stats: state %d out of range", next))
	}
	r.timeIn[r.current] += now - r.since
	r.current = next
	r.since = now
	r.transitions[next]++
}

// Close accumulates the final open interval at time now. Further Switch
// calls panic.
func (r *Residency) Close(now int64) {
	if r.closed {
		return
	}
	if now < r.since {
		panic("stats: residency close before last switch")
	}
	r.timeIn[r.current] += now - r.since
	r.since = now
	r.closed = true
}

// Current returns the state the tracker is currently in.
func (r *Residency) Current() int { return r.current }

// TimeIn returns the accumulated time (ns) in state i.
func (r *Residency) TimeIn(i int) int64 { return r.timeIn[i] }

// Transitions returns the number of entries into state i.
func (r *Residency) Transitions(i int) uint64 { return r.transitions[i] }

// Total returns the accumulated observation time (ns).
func (r *Residency) Total() int64 {
	var t int64
	for _, v := range r.timeIn {
		t += v
	}
	return t
}

// Fractions returns per-state residency fractions summing to 1 (or all
// zeros before any time has accumulated).
func (r *Residency) Fractions() []float64 {
	total := r.Total()
	out := make([]float64, len(r.timeIn))
	if total == 0 {
		return out
	}
	for i, v := range r.timeIn {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// Clone returns an independent copy of the tracker in its current state.
func (r *Residency) Clone() *Residency {
	c := *r
	c.labels = append([]string(nil), r.labels...)
	c.timeIn = append([]int64(nil), r.timeIn...)
	c.transitions = append([]uint64(nil), r.transitions...)
	return &c
}

// AppendState appends the tracker's per-state times and transition
// counts, its current state, and its since/started/closed marks. The
// labels are construction input.
func (r *Residency) AppendState(e *snapbuf.Encoder) {
	for _, v := range r.timeIn {
		e.I64(v)
	}
	for _, v := range r.transitions {
		e.U64(v)
	}
	e.I64(int64(r.current))
	e.I64(r.since)
	e.I64(r.started)
	e.Bool(r.closed)
}

// DecodeState loads what AppendState wrote into r, a tracker built over
// the same labels, rejecting a current state out of range or marks out
// of order or past now (the owner's clock). Errors go to d.
func (r *Residency) DecodeState(d *snapbuf.Decoder, now int64) {
	for i := range r.timeIn {
		r.timeIn[i] = d.I64()
	}
	for i := range r.transitions {
		r.transitions[i] = d.U64()
	}
	cur, since, started, closed := d.I64(), d.I64(), d.I64(), d.Bool()
	if d.Err() != nil {
		return
	}
	if cur < 0 || cur >= int64(len(r.labels)) || started > since || since > now {
		d.Fail(errors.New("stats: corrupt residency tracker"))
		return
	}
	r.current, r.since, r.started, r.closed = int(cur), since, started, closed
}

// EnergyMeter integrates power over time. Power is piecewise-constant
// between SetPower calls, which matches the per-C-state power model.
type EnergyMeter struct {
	joules  float64
	power   float64 // watts
	since   int64   // ns
	started int64
}

// NewEnergyMeter starts integration at time start with the given power.
func NewEnergyMeter(start int64, power float64) *EnergyMeter {
	return &EnergyMeter{power: power, since: start, started: start}
}

// Reset restarts integration at time start with the given power,
// discarding accumulated energy — equivalent to NewEnergyMeter without
// the allocation, for meters re-armed every measurement interval.
func (m *EnergyMeter) Reset(start int64, power float64) {
	m.joules = 0
	m.power = power
	m.since = start
	m.started = start
}

// SetPower advances integration to now and switches to power watts.
func (m *EnergyMeter) SetPower(now int64, power float64) {
	m.advance(now)
	m.power = power
}

// Energy advances integration to now and returns total joules so far.
func (m *EnergyMeter) Energy(now int64) float64 {
	m.advance(now)
	return m.joules
}

// AveragePower returns joules/elapsed-seconds up to now.
func (m *EnergyMeter) AveragePower(now int64) float64 {
	e := m.Energy(now)
	dt := float64(now-m.started) / 1e9
	if dt <= 0 {
		return m.power
	}
	return e / dt
}

func (m *EnergyMeter) advance(now int64) {
	if now <= m.since {
		if now == m.since {
			// Repeated updates at one instant (power-change chains at a
			// single event time) integrate nothing; skip the FP work.
			return
		}
		panic("stats: energy meter time went backwards")
	}
	m.joules += m.power * float64(now-m.since) / 1e9
	m.since = now
}

// AppendState appends the meter's energy, power and time marks.
func (m *EnergyMeter) AppendState(e *snapbuf.Encoder) {
	e.F64(m.joules)
	e.F64(m.power)
	e.I64(m.since)
	e.I64(m.started)
}

// DecodeState loads what AppendState wrote, rejecting time marks out of
// order or past now (the owner's clock). Errors go to d.
func (m *EnergyMeter) DecodeState(d *snapbuf.Decoder, now int64) {
	joules, power, since, started := d.F64(), d.F64(), d.I64(), d.I64()
	if d.Err() != nil {
		return
	}
	if started > since || since > now {
		d.Fail(errors.New("stats: corrupt energy meter"))
		return
	}
	m.joules, m.power, m.since, m.started = joules, power, since, started
}

// SortedSeries is a sorted copy of a data series that serves any number
// of quantile queries from one sort. Build it once per series instead of
// calling Percentile repeatedly, which used to copy and re-sort the
// input on every call.
type SortedSeries []float64

// NewSortedSeries copies and sorts xs.
func NewSortedSeries(xs []float64) SortedSeries {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return cp
}

// Percentile returns the q-quantile of the series using linear
// interpolation (0 for an empty series).
func (s SortedSeries) Percentile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Percentile returns the q-quantile of xs using linear interpolation.
// It sorts a copy per call; callers needing several quantiles of one
// series should build a SortedSeries and query it instead.
func Percentile(xs []float64, q float64) float64 {
	return NewSortedSeries(xs).Percentile(q)
}

// WeightedSeries serves quantiles of a series in which sample i occurs
// weights[i] times, without materializing the expansion. It is the
// class-collapsed counterpart of SortedSeries: Percentile returns
// bit-for-bit what SortedSeries.Percentile would return on the expanded
// multiset, so with all weights 1 the two are interchangeable.
type WeightedSeries struct {
	vals []float64
	cum  []uint64 // cumulative weights; cum[len-1] is the expanded length
}

// NewWeightedSeries copies xs, sorts it keeping each value paired with
// its weight, and precomputes the cumulative weights. Zero-weight
// samples are dropped. Panics on mismatched lengths.
func NewWeightedSeries(xs []float64, weights []uint64) WeightedSeries {
	if len(xs) != len(weights) {
		panic("stats: weighted series length mismatch")
	}
	type wv struct {
		v float64
		w uint64
	}
	pairs := make([]wv, 0, len(xs))
	for i, x := range xs {
		if weights[i] > 0 {
			pairs = append(pairs, wv{x, weights[i]})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	s := WeightedSeries{
		vals: make([]float64, len(pairs)),
		cum:  make([]uint64, len(pairs)),
	}
	var cum uint64
	for i, p := range pairs {
		cum += p.w
		s.vals[i] = p.v
		s.cum[i] = cum
	}
	return s
}

// at returns element k (0-indexed) of the expanded sorted multiset.
func (s WeightedSeries) at(k uint64) float64 {
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > k })
	return s.vals[i]
}

// Percentile returns the q-quantile of the expanded series using the
// same linear interpolation as SortedSeries (0 for an empty series).
func (s WeightedSeries) Percentile(q float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	n := s.cum[len(s.cum)-1]
	if q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	pos := q * float64(n-1)
	lo := uint64(math.Floor(pos))
	hi := uint64(math.Ceil(pos))
	vlo := s.at(lo)
	if lo == hi {
		return vlo
	}
	vhi := s.at(hi)
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// tCrit95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom; beyond the table the normal 1.96 is close enough
// (the df=30 entry is already within 4%).
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCrit95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom (1.96 for df > 30; 0 for df < 1, where no
// interval exists).
func TCrit95(df int) float64 {
	switch {
	case df < 1:
		return 0
	case df <= len(tCrit95):
		return tCrit95[df-1]
	default:
		return 1.96
	}
}

// MeanCI95 returns the sample mean of xs and the half-width of its
// two-sided 95% Student-t confidence interval. With fewer than two
// samples the half-width is 0 — a single measurement carries no
// variance information.
func MeanCI95(xs []float64) (mean, half float64) {
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	mean = s.Mean()
	n := s.Count()
	if n < 2 {
		return mean, 0
	}
	half = TCrit95(int(n-1)) * math.Sqrt(s.Variance()/float64(n))
	return mean, half
}
