package server

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapbuf"
	"repro/internal/xrand"
)

// Dispatch policy names accepted by Config.Dispatch. Policies are
// selected by name (mirroring governor policies) so they can be threaded
// through CLIs and experiment options as plain strings.
const (
	// DispatchRoundRobin cycles through cores in index order — the
	// paper's load-balancing assumption, maximizing idle-state entries by
	// spreading work thin (Sec. 2's "killer microseconds" regime).
	DispatchRoundRobin = "round-robin"
	// DispatchRandom picks a uniformly random core per request.
	DispatchRandom = "random"
	// DispatchLeastLoaded picks the core with the fewest outstanding
	// requests (ties to the lowest index) — an idealized join-shortest-
	// queue load balancer.
	DispatchLeastLoaded = "least-loaded"
	// DispatchPacked consolidates load onto the lowest-numbered cores:
	// a request goes to the first core whose backlog is below
	// Config.PackQueueCap, waking an additional core only when all
	// earlier ones are saturated. This is the energy-proportionality
	// scheduling the paper's round-robin assumption rules out: high
	// cores idle long enough for deep C-states while low cores stay hot.
	DispatchPacked = "packed"
)

// DispatchPolicies lists the built-in dispatch policy names.
func DispatchPolicies() []string {
	return []string{DispatchRoundRobin, DispatchRandom, DispatchLeastLoaded, DispatchPacked}
}

// Dispatcher selects the core that receives each arriving request.
// Implementations must be deterministic given the same request sequence
// and seed; any randomness must come from the provided stream.
type Dispatcher interface {
	// Name identifies the policy.
	Name() string
	// Pick returns the index of the receiving core. cores exposes each
	// core's Load() (queued + executing requests); implementations must
	// not mutate the cores.
	Pick(now sim.Time, cores []*coreRuntime) int
	// clone returns an independent copy carrying the policy's state
	// (see Instance.Clone); appendState and decodeState carry the same
	// state through a snapshot, cores being the core count Pick serves.
	clone() Dispatcher
	appendState(e *snapbuf.Encoder)
	decodeState(d *snapbuf.Decoder, cores int)
}

// newDispatcher constructs the named policy. The random stream is derived
// from the run seed so dispatch randomness never perturbs arrival or
// service sampling.
func newDispatcher(policy string, packCap int, rng *xrand.Rand) (Dispatcher, error) {
	switch policy {
	case "", DispatchRoundRobin:
		return &roundRobinDispatch{}, nil
	case DispatchRandom:
		return &randomDispatch{rng: rng}, nil
	case DispatchLeastLoaded:
		return leastLoadedDispatch{}, nil
	case DispatchPacked:
		if packCap <= 0 {
			packCap = defaultPackQueueCap
		}
		return packedDispatch{cap: packCap}, nil
	default:
		return nil, fmt.Errorf("server: unknown dispatch policy %q (known: %v)", policy, DispatchPolicies())
	}
}

// defaultPackQueueCap bounds per-core backlog under the packed policy.
const defaultPackQueueCap = 4

// Load reports the number of requests the core currently owns: the
// backlog plus the one in execution.
func (c *coreRuntime) Load() int {
	n := c.queue.len()
	if c.busy {
		n++
	}
	return n
}

// roundRobinDispatch's cursor is written on every dispatch. The pad
// fills out a cache line: unpadded, the 8-byte struct comes from the
// tiny allocator, so the dispatchers of instances built one after
// another (a fleet's initial cursors, a fork's clones) share a line,
// and stepping those instances on different goroutines false-shares
// it (measured at about 9% of a 128-node controlled run's wall time on
// a 2-vCPU VM).
type roundRobinDispatch struct {
	next int
	_    [56]byte
}

func (*roundRobinDispatch) Name() string { return DispatchRoundRobin }

func (d *roundRobinDispatch) Pick(_ sim.Time, cores []*coreRuntime) int {
	i := d.next
	d.next = (d.next + 1) % len(cores)
	return i
}

func (d *roundRobinDispatch) clone() Dispatcher {
	c := *d
	return &c
}

func (d *roundRobinDispatch) appendState(e *snapbuf.Encoder) { e.I64(int64(d.next)) }

func (d *roundRobinDispatch) decodeState(dec *snapbuf.Decoder, cores int) {
	next := dec.I64()
	if dec.Err() == nil && (next < 0 || next >= int64(cores)) {
		dec.Fail(errors.New("server: corrupt round-robin cursor"))
		return
	}
	d.next = int(next)
}

type randomDispatch struct{ rng *xrand.Rand }

func (*randomDispatch) Name() string { return DispatchRandom }

func (d *randomDispatch) Pick(_ sim.Time, cores []*coreRuntime) int {
	return d.rng.Intn(len(cores))
}

func (d *randomDispatch) clone() Dispatcher { return &randomDispatch{rng: d.rng.Clone()} }

func (d *randomDispatch) appendState(e *snapbuf.Encoder)              { d.rng.AppendState(e) }
func (d *randomDispatch) decodeState(dec *snapbuf.Decoder, cores int) { d.rng.DecodeState(dec) }

type leastLoadedDispatch struct{}

func (leastLoadedDispatch) Name() string { return DispatchLeastLoaded }

func (d leastLoadedDispatch) clone() Dispatcher { return d }

func (leastLoadedDispatch) appendState(*snapbuf.Encoder)      {}
func (leastLoadedDispatch) decodeState(*snapbuf.Decoder, int) {}

func (leastLoadedDispatch) Pick(_ sim.Time, cores []*coreRuntime) int {
	best, bestLoad := 0, cores[0].Load()
	for i := 1; i < len(cores); i++ {
		if l := cores[i].Load(); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

type packedDispatch struct{ cap int }

func (packedDispatch) Name() string { return DispatchPacked }

func (d packedDispatch) clone() Dispatcher { return d }

func (packedDispatch) appendState(*snapbuf.Encoder)      {}
func (packedDispatch) decodeState(*snapbuf.Decoder, int) {}

func (d packedDispatch) Pick(_ sim.Time, cores []*coreRuntime) int {
	// First core with headroom wins; if every core is saturated, fall
	// back to the least-loaded one so the backlog stays bounded.
	best, bestLoad := 0, cores[0].Load()
	for i, c := range cores {
		l := c.Load()
		if l < d.cap {
			return i
		}
		if l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}
