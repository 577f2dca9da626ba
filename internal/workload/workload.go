// Package workload synthesizes the request streams of the paper's
// latency-critical services — Memcached (Mutilate/ETC), Apache Kafka and
// MySQL (sysbench OLTP) — as open-loop arrival processes paired with
// service-time distributions calibrated at the platform's base frequency.
//
// Substitution note: the paper drives real server processes from a
// six-machine cluster. What its models consume, however, is the busy/idle
// interleaving each service induces on the cores — irregular
// microsecond-scale idle periods at 5–25 % utilization. The profiles here
// regenerate that interleaving (arrival irregularity, service-time shape
// and tail, frequency sensitivity, network RTT) without the byte-level
// protocols.
package workload

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// ArrivalProcess produces inter-arrival gaps for a target aggregate rate.
type ArrivalProcess interface {
	// NextGap returns the next inter-arrival time at ratePerSec.
	NextGap(r *xrand.Rand, ratePerSec float64) sim.Time
	// Name identifies the process.
	Name() string
}

// CloneableArrival is implemented by stateful arrival processes. The
// simulator copies such processes before a run, so a Profile value can be
// shared across concurrent or repeated simulations without its modulation
// state leaking between them.
type CloneableArrival interface {
	ArrivalProcess
	// CloneArrival returns an independent copy carrying the same
	// parameters and current modulation state.
	CloneArrival() ArrivalProcess
}

// fingerprinter is implemented by workload components whose behavior is
// fully determined by the value text they append; components backed by
// live mutable state (e.g. the kvstore ETC service) do not implement it,
// which marks profiles containing them as non-memoizable.
type fingerprinter interface {
	appendFingerprint(b []byte) []byte
}

// appendG appends f as fmt's %g prints it (NaN and ±Inf included).
func appendG(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// appendTime appends t as %d prints it.
func appendTime(b []byte, t sim.Time) []byte { return strconv.AppendInt(b, int64(t), 10) }

// Poisson is a memoryless arrival process — the standard open-loop load
// generator model (Mutilate's default).
type Poisson struct{}

// Name implements ArrivalProcess.
func (Poisson) Name() string { return "poisson" }

func (Poisson) appendFingerprint(b []byte) []byte { return append(b, "poisson"...) }

// NextGap implements ArrivalProcess.
func (Poisson) NextGap(r *xrand.Rand, ratePerSec float64) sim.Time {
	if ratePerSec <= 0 {
		return sim.MaxTime
	}
	gap := r.Exp(1e9 / ratePerSec)
	if gap < 1 {
		gap = 1
	}
	return sim.Time(gap)
}

// MMPP2 is a two-state Markov-modulated Poisson process: it alternates
// between a calm state and a bursty state, producing the irregular
// request streams that microservice fan-out creates (Sec. 1).
type MMPP2 struct {
	// BurstRateBoost multiplies the rate while bursting.
	BurstRateBoost float64
	// BurstFraction is the long-run fraction of time spent bursting.
	BurstFraction float64
	// MeanBurst is the mean burst-state dwell time.
	MeanBurst sim.Time

	bursting  bool
	dwellLeft float64
}

// NewMMPP2 returns a moderately bursty modulated process.
func NewMMPP2() *MMPP2 {
	return &MMPP2{BurstRateBoost: 4, BurstFraction: 0.2, MeanBurst: 2 * sim.Millisecond}
}

// Name implements ArrivalProcess.
func (m *MMPP2) Name() string { return "mmpp2" }

// CloneArrival implements CloneableArrival.
func (m *MMPP2) CloneArrival() ArrivalProcess {
	cp := *m
	return &cp
}

func (m *MMPP2) appendFingerprint(b []byte) []byte {
	b = appendG(append(b, "mmpp2:"...), m.BurstRateBoost)
	b = appendG(append(b, ','), m.BurstFraction)
	b = appendTime(append(b, ','), m.MeanBurst)
	b = strconv.AppendBool(append(b, ','), m.bursting)
	return appendG(append(b, ','), m.dwellLeft)
}

// NextGap implements ArrivalProcess.
func (m *MMPP2) NextGap(r *xrand.Rand, ratePerSec float64) sim.Time {
	if ratePerSec <= 0 {
		return sim.MaxTime
	}
	// The two states are balanced so the long-run average rate equals
	// ratePerSec: burst state runs at boost x calm rate.
	calmFrac := 1 - m.BurstFraction
	calmRate := ratePerSec / (calmFrac + m.BurstFraction*m.BurstRateBoost)
	rate := calmRate
	if m.bursting {
		rate = calmRate * m.BurstRateBoost
	}
	gap := r.Exp(1e9 / rate)
	if gap < 1 {
		gap = 1
	}
	// Advance the modulating chain.
	m.dwellLeft -= gap
	if m.dwellLeft <= 0 {
		m.bursting = !m.bursting
		mean := float64(m.MeanBurst)
		if !m.bursting {
			mean = mean * (1 - m.BurstFraction) / m.BurstFraction
		}
		m.dwellLeft = r.Exp(mean)
	}
	return sim.Time(gap)
}

// ServiceDist samples per-request service demands (at the profile's
// reference frequency).
type ServiceDist interface {
	Sample(r *xrand.Rand) sim.Time
	// Mean returns the distribution's analytic mean, used to compute
	// offered utilization.
	Mean() sim.Time
	Name() string
}

// LogNormalService is a log-normal service time with given mean and CV.
type LogNormalService struct {
	MeanTime sim.Time
	CV       float64
}

// Name implements ServiceDist.
func (s LogNormalService) Name() string { return "lognormal" }

func (s LogNormalService) appendFingerprint(b []byte) []byte {
	b = appendTime(append(b, "lognormal:"...), s.MeanTime)
	return appendG(append(b, ','), s.CV)
}

// Mean implements ServiceDist.
func (s LogNormalService) Mean() sim.Time { return s.MeanTime }

// Sample implements ServiceDist.
func (s LogNormalService) Sample(r *xrand.Rand) sim.Time {
	v := r.LogNormalMeanCV(float64(s.MeanTime), s.CV)
	if v < 1 {
		v = 1
	}
	return sim.Time(v)
}

// TailedService mixes a log-normal body with a bounded-Pareto tail,
// capturing the heavy tails of real key-value and OLTP services.
type TailedService struct {
	Body LogNormalService
	// TailProb is the probability a request draws from the tail.
	TailProb float64
	// TailXm and TailAlpha parameterize the Pareto tail.
	TailXm    sim.Time
	TailAlpha float64
	// TailCap truncates pathological samples.
	TailCap sim.Time
}

// Name implements ServiceDist.
func (s TailedService) Name() string { return "lognormal+pareto" }

func (s TailedService) appendFingerprint(b []byte) []byte {
	b = s.Body.appendFingerprint(append(b, "tailed:"...))
	b = appendG(append(b, ','), s.TailProb)
	b = appendTime(append(b, ','), s.TailXm)
	b = appendG(append(b, ','), s.TailAlpha)
	return appendTime(append(b, ','), s.TailCap)
}

// Mean implements ServiceDist.
func (s TailedService) Mean() sim.Time {
	// Bounded Pareto mean ~ xm*alpha/(alpha-1) for alpha > 1 (cap effect
	// ignored: it is far in the tail).
	tailMean := float64(s.TailXm) * s.TailAlpha / (s.TailAlpha - 1)
	m := (1-s.TailProb)*float64(s.Body.MeanTime) + s.TailProb*tailMean
	return sim.Time(m)
}

// Sample implements ServiceDist.
func (s TailedService) Sample(r *xrand.Rand) sim.Time {
	if r.Bernoulli(s.TailProb) {
		v := r.Pareto(float64(s.TailXm), s.TailAlpha)
		if s.TailCap > 0 && v > float64(s.TailCap) {
			v = float64(s.TailCap)
		}
		return sim.Time(v)
	}
	return s.Body.Sample(r)
}

// Profile is a complete service characterization.
type Profile struct {
	Name string
	// RefFreqHz is the frequency the service demands are calibrated at.
	RefFreqHz float64
	// FreqScalability is the workload's performance sensitivity to
	// frequency (Fig. 8(d): ~0.45 for Memcached).
	FreqScalability float64
	// NetworkRTT is the mean client<->server network latency added to
	// end-to-end response times (Sec. 7.1: 117 us).
	NetworkRTT sim.Time
	// NetworkCV is the RTT's coefficient of variation.
	NetworkCV float64
	// Arrivals and Service define the load.
	Arrivals ArrivalProcess
	Service  ServiceDist
}

// Validate checks the profile is usable.
func (p Profile) Validate() error {
	if p.RefFreqHz <= 0 {
		return fmt.Errorf("workload %q: non-positive reference frequency", p.Name)
	}
	if p.Arrivals == nil || p.Service == nil {
		return fmt.Errorf("workload %q: missing arrivals or service", p.Name)
	}
	if p.FreqScalability < 0 || p.FreqScalability > 1 {
		return fmt.Errorf("workload %q: scalability %v out of [0,1]", p.Name, p.FreqScalability)
	}
	return nil
}

// Fingerprint returns a deterministic identity string for the profile and
// true when every component's behavior is fully captured by value — the
// precondition for memoizing simulation results keyed on it. Profiles
// backed by live mutable state (e.g. MemcachedETC's kvstore) report false.
func (p Profile) Fingerprint() (string, bool) {
	b, ok := p.AppendFingerprint(nil)
	return string(b), ok
}

// AppendFingerprint appends Fingerprint's text to b and reports whether
// the profile is fingerprintable (b is returned unchanged when not). The
// text must not change: snapshots store it and restores compare against
// it (TestFingerprintTextPinned).
func (p Profile) AppendFingerprint(b []byte) ([]byte, bool) {
	af, sf, ok := p.fingerprinters()
	if !ok {
		return b, false
	}
	b = appendG(append(append(b, p.Name...), "|ref="...), p.RefFreqHz)
	b = appendG(append(b, "|scal="...), p.FreqScalability)
	b = appendTime(append(b, "|rtt="...), p.NetworkRTT)
	b = appendG(append(b, "|cv="...), p.NetworkCV)
	b = af.appendFingerprint(append(b, "|arr="...))
	return sf.appendFingerprint(append(b, "|svc="...)), true
}

// fingerprinters returns p's arrival and service fingerprinters, and
// false when either component has none.
func (p Profile) fingerprinters() (fingerprinter, fingerprinter, bool) {
	af, ok := p.Arrivals.(fingerprinter)
	if !ok {
		return nil, nil, false
	}
	sf, ok := p.Service.(fingerprinter)
	return af, sf, ok
}

// SameFingerprint reports whether a and b are both fingerprintable and
// append identical fingerprint text, without formatting either: a pass
// keying many nodes formats a shared profile's text once. Every
// fingerprinter type is comparable, so == on two fingerprintable
// profiles cannot panic; a MemcachedETC or custom component is refused
// before it reaches ==. A *MMPP2 compares by pointer, so two distinct
// processes with equal parameters report false, which only costs a
// reformat. == also equates -0 and +0, which %g prints apart, so the
// float fields must agree in sign too.
func SameFingerprint(a, b *Profile) bool {
	if _, _, ok := a.fingerprinters(); !ok {
		return false
	}
	if _, _, ok := b.fingerprinters(); !ok {
		return false
	}
	if *a != *b {
		return false
	}
	if !sameSigns(a.RefFreqHz, b.RefFreqHz) || !sameSigns(a.FreqScalability, b.FreqScalability) ||
		!sameSigns(a.NetworkCV, b.NetworkCV) {
		return false
	}
	// a.Service == b.Service, so both hold the same dynamic type. An
	// equal *MMPP2 is one process, so its floats need no check.
	switch sa := a.Service.(type) {
	case LogNormalService:
		return sameSigns(sa.CV, b.Service.(LogNormalService).CV)
	case TailedService:
		sb := b.Service.(TailedService)
		return sameSigns(sa.Body.CV, sb.Body.CV) && sameSigns(sa.TailProb, sb.TailProb) &&
			sameSigns(sa.TailAlpha, sb.TailAlpha)
	}
	return true
}

// sameSigns reports whether two floats that are == also agree in sign.
func sameSigns(x, y float64) bool { return math.Signbit(x) == math.Signbit(y) }

// UtilizationAt returns the offered per-core utilization at an aggregate
// rate spread over the given core count.
func (p Profile) UtilizationAt(ratePerSec float64, cores int) float64 {
	if cores <= 0 {
		return 0
	}
	return ratePerSec / float64(cores) * float64(p.Service.Mean()) / 1e9
}

// SampleNetwork draws one network RTT.
func (p Profile) SampleNetwork(r *xrand.Rand) sim.Time {
	if p.NetworkRTT == 0 {
		return 0
	}
	if p.NetworkCV <= 0 {
		return p.NetworkRTT
	}
	v := r.LogNormalMeanCV(float64(p.NetworkRTT), p.NetworkCV)
	return sim.Time(v)
}

// Memcached returns the ETC-like key-value profile: microsecond-scale
// lognormal service with a light Pareto tail, Poisson open-loop arrivals,
// moderate frequency scalability, 117 us network RTT.
func Memcached() Profile {
	return Profile{
		Name:            "memcached",
		RefFreqHz:       2.2e9,
		FreqScalability: 0.45,
		NetworkRTT:      117 * sim.Microsecond,
		NetworkCV:       0.30,
		Arrivals:        Poisson{},
		Service: TailedService{
			Body:      LogNormalService{MeanTime: 7 * sim.Microsecond, CV: 0.7},
			TailProb:  0.05,
			TailXm:    25 * sim.Microsecond,
			TailAlpha: 2.2,
			TailCap:   2 * sim.Millisecond,
		},
	}
}

// Kafka returns the event-streaming profile: bursty batched arrivals and
// tens-of-microseconds batch handling.
func Kafka() Profile {
	return Profile{
		Name:            "kafka",
		RefFreqHz:       2.2e9,
		FreqScalability: 0.35,
		NetworkRTT:      117 * sim.Microsecond,
		NetworkCV:       0.30,
		Arrivals:        NewMMPP2(),
		Service: TailedService{
			Body:      LogNormalService{MeanTime: 25 * sim.Microsecond, CV: 0.9},
			TailProb:  0.03,
			TailXm:    80 * sim.Microsecond,
			TailAlpha: 2.0,
			TailCap:   5 * sim.Millisecond,
		},
	}
}

// MySQL returns the sysbench-OLTP profile: hundreds-of-microseconds
// transactions with a heavy tail and higher frequency scalability.
func MySQL() Profile {
	return Profile{
		Name:            "mysql",
		RefFreqHz:       2.2e9,
		FreqScalability: 0.60,
		NetworkRTT:      117 * sim.Microsecond,
		NetworkCV:       0.25,
		Arrivals:        Poisson{},
		Service: TailedService{
			Body:      LogNormalService{MeanTime: 180 * sim.Microsecond, CV: 1.0},
			TailProb:  0.02,
			TailXm:    600 * sim.Microsecond,
			TailAlpha: 1.8,
			TailCap:   20 * sim.Millisecond,
		},
	}
}

// ByName returns a profile by service name.
func ByName(name string) (Profile, error) {
	switch name {
	case "memcached":
		return Memcached(), nil
	case "kafka":
		return Kafka(), nil
	case "mysql":
		return MySQL(), nil
	default:
		return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
	}
}
