// Package runner is the shared sweep executor behind every experiment:
// it runs server simulations with bounded parallelism and memoizes
// results, so overlapping sweeps (Fig. 8, Fig. 10, Table 5 and the
// proportionality study all simulate the Baseline Memcached curve) cost
// one simulation instead of four.
//
// Memoization is sound because a simulation is a pure function of its
// Config: all randomness derives from Config.Seed, and AppendKey only
// reports a config cacheable when every behavioral input is captured by
// value (profiles backed by live mutable state and custom catalogs are
// executed uncached). Cached Results are shared between callers, so
// experiments must treat them as read-only — which they do, being pure
// renderers.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/snapbuf"
	"repro/internal/workload"
)

// flight is one single-flight cache slot: the first requester executes,
// duplicates block on the Once and share the outcome.
type flight[V any] struct {
	once sync.Once
	val  V
	err  error
}

// memo is the memoization + single-flight machinery shared by Run
// (server.Result values) and RunTimeline ([]server.IntervalResult
// values): one mutex-guarded map of Once-guarded slots, so identical
// keys execute exactly once. The lock covers only the map lookup, never
// a simulation.
type memo[V any] struct {
	mu    sync.Mutex
	slots map[string]*flight[V]
}

// do returns the memoized value for key, executing fn exactly once per
// key; hit reports whether a slot already existed. Only a miss copies
// key into a string.
func (m *memo[V]) do(key []byte, fn func() (V, error)) (v V, err error, hit bool) {
	m.mu.Lock()
	e, hit := m.slots[string(key)]
	if !hit {
		e = &flight[V]{}
		m.slots[string(key)] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val, e.err = fn() })
	return e.val, e.err, hit
}

// Runner executes simulations with bounded parallelism and memoization.
// The zero value is not usable; construct with New.
type Runner struct {
	// helpers holds one token per running Each helper goroutine; its
	// capacity is parallelism-1, the calling goroutine being the last
	// worker.
	helpers chan struct{}

	cache  memo[server.Result]
	tcache memo[[]server.IntervalResult]

	hits, misses atomic.Uint64

	// Class-dedup accounting, fed by the cluster layer's class-collapsed
	// scenario path (see NoteClassDedup): fleet node timelines requested,
	// equivalence classes actually simulated, and extra seeded replica
	// timelines run for error bars.
	classNodes    atomic.Uint64
	classClasses  atomic.Uint64
	classReplicas atomic.Uint64
}

// note counts one cache outcome into Stats.
func (r *Runner) note(hit bool) {
	if hit {
		r.hits.Add(1)
	} else {
		r.misses.Add(1)
	}
}

// New returns a Runner bounding concurrent simulations to parallelism
// (GOMAXPROCS when <= 0).
func New(parallelism int) *Runner {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	r := &Runner{helpers: make(chan struct{}, parallelism-1)}
	r.cache.slots = make(map[string]*flight[server.Result])
	r.tcache.slots = make(map[string]*flight[[]server.IntervalResult])
	return r
}

var defaultRunner = New(0)

// Default returns the process-wide shared Runner. All experiments route
// through it, so an `awsim` invocation regenerating several figures
// reuses every simulation they have in common.
func Default() *Runner { return defaultRunner }

// AppendKey appends the memoization key for cfg to buf and reports
// whether cfg is cacheable. Non-cacheable configs (a custom catalog, or
// a profile whose behavior is not captured by value) always execute.
// The key is the binary config block snapshots also write
// (server.EncodeKey), computed on the defaulted config so zero-value and
// explicitly-default knobs (Dispatch "" vs "round-robin", PackQueueCap 0
// vs 4, ...) share one cache slot, followed by RatePerSec and the
// length-prefixed schedule fingerprint. Every field is fixed-width or
// length-prefixed, so distinct configs never encode alike. A pass
// keying many configs uses a KeyEncoder instead.
func AppendKey(buf []byte, cfg server.Config) ([]byte, bool) {
	// One allocation holds any built-in profile's fingerprint text.
	fp, ok := cfg.Profile.AppendFingerprint(make([]byte, 0, 256))
	if !ok {
		return buf, false
	}
	return appendKey(buf, &cfg, fp)
}

// appendKey is AppendKey with the profile's fingerprint text supplied.
func appendKey(buf []byte, cfg *server.Config, fingerprint []byte) ([]byte, bool) {
	e := snapbuf.Encoder{Buf: buf}
	if !server.EncodeKey(&e, cfg, fingerprint) {
		return buf, false
	}
	e.F64(cfg.RatePerSec)
	var sched string
	if cfg.Schedule != nil {
		// A schedule's fingerprint fully determines its rate function, so
		// scheduled runs stay memoizable.
		sched = cfg.Schedule.Fingerprint()
	}
	e.Str(sched)
	return e.Buf, true
}

// KeyEncoder appends the keys AppendKey appends, byte for byte, for a
// pass over many configs: it remembers the last profile it
// fingerprinted and reuses that text while the configs it is handed
// share the profile value (workload.SameFingerprint), so a fleet pays
// the fingerprint formatting once per run of equal profiles, not once
// per node. The zero value is ready to use; use one per pass, from one
// goroutine. A *MMPP2 arrival process compares by identity, so its
// modulation state must not change while the encoder is in use: key,
// then simulate.
type KeyEncoder struct {
	prof workload.Profile
	fp   []byte // prof's fingerprint text; nil until one is formatted
}

// AppendKey is AppendKey for *cfg.
func (k *KeyEncoder) AppendKey(buf []byte, cfg *server.Config) ([]byte, bool) {
	if k.fp == nil || !workload.SameFingerprint(&k.prof, &cfg.Profile) {
		fp, ok := cfg.Profile.AppendFingerprint(k.fp[:0])
		if !ok {
			return buf, false
		}
		k.prof, k.fp = cfg.Profile, fp
	}
	return appendKey(buf, cfg, k.fp)
}

// Run executes (or returns the memoized result of) one simulation.
// Identical configs requested concurrently run once; the duplicates
// block on the first execution. The returned Result may be shared with
// other callers and must be treated as read-only.
func (r *Runner) Run(cfg server.Config) (server.Result, error) {
	key, cacheable := AppendKey(nil, cfg)
	if !cacheable {
		r.misses.Add(1)
		return server.RunConfig(cfg)
	}
	res, err, hit := r.cache.do(key, func() (server.Result, error) {
		return server.RunConfig(cfg)
	})
	r.note(hit)
	return res, err
}

// Interval is one window of a node's load timeline: Window of simulated
// time at a constant offered Rate (QPS), optionally under a fault
// (crash, straggler inflation, or thermal throttle — see Fault).
type Interval struct {
	Window sim.Time
	Rate   float64
	Fault  Fault
}

// TimelineSpec describes one node's entire scenario timeline: the base
// node configuration (its RatePerSec, Schedule and Duration are
// ignored; Warmup is paid once) run through a resumable server.Instance
// across the listed intervals, parking on zero-rate intervals when Park
// is set. The whole timeline is the memoization unit — see RunTimeline.
type TimelineSpec struct {
	Node      server.Config
	Park      bool
	Intervals []Interval
}

// AppendTimelineKey appends the node's simulation key extended with the
// park flag and the exact interval list, and reports whether the spec
// is cacheable. A timeline is a pure function of these: all randomness
// still derives from Node.Seed, and the interval windows and rates
// fully determine the piecewise-constant offered load. Beyond
// memoization, the key states the cluster layer's timeline equivalence:
// two nodes with equal keys are bit-identical simulations, so one
// representative run can stand for all of them.
func AppendTimelineKey(buf []byte, spec TimelineSpec) ([]byte, bool) {
	buf, ok := AppendKey(buf, spec.Node)
	if !ok {
		return buf, false
	}
	e := snapbuf.Encoder{Buf: buf}
	e.Bool(spec.Park)
	for _, iv := range spec.Intervals {
		e.I64(int64(iv.Window))
		e.F64(iv.Rate)
		// A healthy interval carries a 0 marker and a faulted one a 1 plus
		// its fault, so a faulted node can never share an equivalence
		// class with a healthy one.
		f := iv.Fault
		e.Bool(!f.healthy())
		if !f.healthy() {
			e.Bool(f.Down)
			e.F64(f.Inflate)
			e.Bool(f.Throttle)
			e.F64(f.TurboCap)
		}
	}
	return e.Buf, true
}

// TimelineKey is AppendTimelineKey into a fresh string.
func TimelineKey(spec TimelineSpec) (string, bool) {
	key, ok := AppendTimelineKey(nil, spec)
	return string(key), ok
}

// RunTimeline executes (or returns the memoized results of) one node's
// full interval timeline on a resumable server.Instance: one warmup,
// then every interval in sequence with engine, C-state, ring and RNG
// state carried across the boundaries. Identical specs requested
// concurrently run once (single-flight); cache hits and misses count
// into Stats alongside Run's. The returned slice is shared between
// callers and must be treated as read-only.
func (r *Runner) RunTimeline(spec TimelineSpec) ([]server.IntervalResult, error) {
	if len(spec.Intervals) == 0 {
		return nil, fmt.Errorf("runner: empty timeline")
	}
	key, cacheable := AppendTimelineKey(nil, spec)
	if !cacheable {
		r.misses.Add(1)
		return runTimeline(spec)
	}
	res, err, hit := r.tcache.do(key, func() ([]server.IntervalResult, error) {
		return runTimeline(spec)
	})
	r.note(hit)
	return res, err
}

// runTimeline is the uncached timeline execution: a TimelineCursor
// stepped through every interval, so crash/rebuild and fault
// installation behave identically here and in the scenario engine.
func runTimeline(spec TimelineSpec) ([]server.IntervalResult, error) {
	tc, err := NewCursor(spec.Node, spec.Park)
	if err != nil {
		return nil, err
	}
	out := make([]server.IntervalResult, len(spec.Intervals))
	for i, iv := range spec.Intervals {
		out[i], err = tc.Step(iv)
		if err != nil {
			return nil, fmt.Errorf("runner: interval %d: %w", i, err)
		}
	}
	return out, nil
}

// Each runs fn(0..n-1) with bounded parallelism and may be called from
// inside fn, so a task can fan out its own independent work. The calling
// goroutine is itself a worker: it and any helpers claim tasks in index
// order from a shared counter. A helper starts only while one of the
// Runner's parallelism-1 helper slots is free, and the slot is taken
// without blocking, so a nested Each never waits on the pool: with no
// slot free its caller runs the tasks itself. A top-level Each called
// from one goroutine therefore runs at most parallelism tasks at once
// (New(1) is fully serial); with several top-level callers, up to
// callers + parallelism-1 run at once.
//
// A failure short-circuits the fan-out: tasks not yet claimed are
// skipped once any task has returned an error, so a failing node does
// not leave a fleet of doomed simulations running to completion behind
// it. (Already-running tasks finish; simulations have no preemption
// points.) On failure Each returns the lowest-indexed error among the
// tasks that actually ran — with several near-simultaneous failures,
// which tasks ran (and hence which error surfaces) is
// scheduling-dependent; only the success/failure outcome is
// deterministic. Each simulation is an isolated Sim with its own RNG
// streams, so sweep points parallelize safely.
func (r *Runner) Each(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		failed atomic.Bool
	)
	errs := make([]error, n)
	var work func()
	work = func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			// Offer the tasks after this one to a helper, if a slot is
			// free.
			if i+1 < n {
				select {
				case r.helpers <- struct{}{}:
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-r.helpers }()
						work()
					}()
				default:
				}
			}
			if err := fn(i); err != nil {
				errs[i] = err
				failed.Store(true)
			}
		}
	}
	work()
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Stats reports cache hits and misses (uncacheable runs count as misses).
func (r *Runner) Stats() (hits, misses uint64) {
	return r.hits.Load(), r.misses.Load()
}

// NoteClassDedup records one class-collapsed fleet execution: nodes
// timelines were requested, collapsed into classes equivalence classes,
// plus replicaRuns extra seeded replica timelines. The cluster layer
// calls this once per scenario; ClassStats accumulates across calls so
// sweeps report their whole-process dedup rate like cache hits/misses.
func (r *Runner) NoteClassDedup(nodes, classes, replicaRuns int) {
	r.classNodes.Add(uint64(nodes))
	r.classClasses.Add(uint64(classes))
	r.classReplicas.Add(uint64(replicaRuns))
}

// ClassStats reports the accumulated class-dedup counters: node
// timelines requested, equivalence classes simulated (nodes - classes
// timelines were deduplicated away), and seeded replica timelines run.
func (r *Runner) ClassStats() (nodes, classes, replicaRuns uint64) {
	return r.classNodes.Load(), r.classClasses.Load(), r.classReplicas.Load()
}
