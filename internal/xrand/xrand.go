// Package xrand provides deterministic random streams and the sampling
// distributions used by the workload generators.
//
// Every stochastic component of the simulator (arrival process, service
// times, snoop traffic, measurement noise) draws from its own named
// stream, so adding a new consumer never perturbs existing ones and every
// experiment is reproducible from a single experiment seed.
package xrand

import (
	"errors"
	"math"

	"repro/internal/snapbuf"
)

// splitmix64 is used to derive stream seeds; xoshiro256** generates the
// stream itself. Both are public-domain algorithms (Blackman & Vigna).

func splitmix64(x uint64) (uint64, uint64) {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return z, x
}

// Rand is a deterministic 64-bit PRNG (xoshiro256**).
type Rand struct {
	s [4]uint64
	// Single-entry memo for LogNormalMeanCV's derived (mu, sigma): a
	// stream samples one distribution in practice, so the two Logs and
	// the Sqrt per sample reduce to one comparison. Cache state does not
	// affect the generated sequence.
	lnMean, lnCV   float64
	lnMu, lnSigma  float64
	lnParamsPrimed bool
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	var r Rand
	state := seed
	for i := range r.s {
		r.s[i], state = splitmix64(state)
	}
	// All-zero state is invalid for xoshiro; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return &r
}

// NewStream derives an independent generator for a named purpose.
// Identical (seed, name) pairs always yield the same stream.
func NewStream(seed uint64, name string) *Rand {
	h := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return New(seed ^ h)
}

// State returns the generator's internal xoshiro256** state — the
// complete stream position, so a generator restored with SetState
// continues the exact sequence this one would have produced. The
// log-normal parameter memo is deliberately excluded: it caches derived
// values only and never affects the generated sequence.
func (r *Rand) State() [4]uint64 { return r.s }

// Clone returns an independent generator at the same stream position:
// both continue the identical sequence from here.
func (r *Rand) Clone() *Rand {
	c := *r
	return &c
}

// SetState installs a previously captured stream state. The all-zero
// state is the one fixed point xoshiro256** can never leave and is
// rejected; New and NewStream never produce it.
func (r *Rand) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("xrand: all-zero state is invalid for xoshiro256**")
	}
	r.s = s
	return nil
}

// AppendState appends the stream position (State); the log-normal memo
// is derived and left out, as in State.
func (r *Rand) AppendState(e *snapbuf.Encoder) {
	for _, w := range r.s {
		e.U64(w)
	}
}

// DecodeState installs a position AppendState wrote (see SetState).
// Errors go to d.
func (r *Rand) DecodeState(d *snapbuf.Decoder) {
	var s [4]uint64
	for i := range s {
		s[i] = d.U64()
	}
	if d.Err() == nil {
		if err := r.SetState(s); err != nil {
			d.Fail(err)
		}
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *Rand) Float64() float64 {
	// Scaling by 2^-53 instead of dividing by 2^53 is exact either way
	// (the 53-bit integer scales by a power of two without rounding),
	// and the multiply is several cycles cheaper.
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed sample with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed sample (Box–Muller).
func (r *Rand) Normal(mean, stddev float64) float64 {
	var u1, u2 float64
	for {
		u1 = r.Float64()
		if u1 > 0 {
			break
		}
	}
	u2 = r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a sample whose logarithm is Normal(mu, sigma).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// LogNormalMeanCV returns a log-normal sample parameterized by its
// arithmetic mean and coefficient of variation (stddev/mean), which is how
// service-time distributions are specified in the workload profiles.
func (r *Rand) LogNormalMeanCV(mean, cv float64) float64 {
	if mean <= 0 {
		panic("xrand: LogNormalMeanCV with mean <= 0")
	}
	if cv <= 0 {
		return mean
	}
	if !r.lnParamsPrimed || mean != r.lnMean || cv != r.lnCV {
		sigma2 := math.Log(1 + cv*cv)
		r.lnMu = math.Log(mean) - sigma2/2
		r.lnSigma = math.Sqrt(sigma2)
		r.lnMean, r.lnCV = mean, cv
		r.lnParamsPrimed = true
	}
	return r.LogNormal(r.lnMu, r.lnSigma)
}

// Pareto returns a bounded Pareto sample with the given shape alpha and
// minimum xm. Used for heavy-tailed service components.
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool { return r.Float64() < p }

// Zipf samples ranks in [0, n) with Zipfian skew s (s=0 is uniform).
// It uses the classic rejection-inversion-free CDF table for small n and
// is intended for key-popularity modeling in the key-value workload.
type Zipf struct {
	cdf []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next rank in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
