// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function of an Options value and
// returns structured results plus a rendered report.Table, so the same
// code backs the CLI tools, the examples, and the benchmark harness.
//
// Every simulation-backed experiment executes through the shared
// internal/runner sweep executor: sweeps run with bounded parallelism,
// and simulations that several experiments have in common (the Baseline
// Memcached curve backs Fig. 8, Fig. 10, Table 5 and the proportionality
// study) are memoized and run once per process.
//
// Index (see DESIGN.md for the full mapping):
//
//	Table1, Table2, Table3, Table4, Table5
//	Motivation (Sec. 2), TransitionLatency (Sec. 5.2)
//	Figure8, Figure9, Figure10, Figure11, Figure12, Figure13
//	Validation (Sec. 6.3), SnoopImpact (Sec. 7.5)
//	Dispatch (load-placement policy study)
package experiments

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Options controls simulation fidelity for every experiment.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Duration is the measured window per run; Warmup precedes it.
	Duration sim.Time
	Warmup   sim.Time
	// Rates is the Memcached load sweep (QPS); defaults to the paper's
	// 10K-500K points.
	Rates []float64
	// Dispatch overrides the request-to-core placement policy for every
	// simulation (default round-robin; see server.DispatchPolicies).
	// The dispatch experiment ignores it and sweeps all policies.
	Dispatch string
	// LoadGen overrides the arrival generator for every simulation
	// (default open-loop; see server.LoadGens).
	LoadGen string
	// Connections is the closed-loop connection count, required when
	// LoadGen is closed-loop (each experiment's rate points then only
	// vary the memo key, not the offered load).
	Connections int
	// Nodes is the fleet size of the cluster experiment (default 4).
	Nodes int
	// ClusterDispatch is the cluster-level load partitioning policy the
	// cluster experiment's cost comparison runs under (default spread;
	// see cluster.Policies). The policy table always sweeps all policies.
	// The scenario experiment also honors it (default spread there, the
	// policy under which the trough-vs-peak savings contrast is
	// sharpest; use consolidate to study the parking timeline).
	ClusterDispatch string
	// Scenario names the time-varying load shape of the scenario
	// experiment (default diurnal; see scenario.Names).
	Scenario string
	// Epoch is the scenario experiment's fleet re-dispatch interval
	// (default Duration/12 — one epoch per diurnal segment).
	Epoch sim.Time
	// Replicas adds K seeded statistical replicas per timeline
	// equivalence class to the scenario experiment and attaches 95%
	// confidence intervals to its fleet observables. Setting it switches
	// the fleet to shared node seeds (so identical timelines collapse to
	// one class and the replicas carry the variance story) and to the
	// compact O(classes) collector.
	Replicas int
	// Controller routes the scenario experiment's Baseline/AW comparison
	// through the named closed-loop fleet controller (oracle, reactive
	// or predictive; see cluster.Controllers) instead of the default
	// open-loop plan. The controller comparison table
	// always sweeps all three regardless of this setting.
	Controller string
	// ControllerUpUtil and ControllerDownUtil override the reactive
	// controller's hysteresis deadband (defaults 0.75 and 0.40): the
	// target holds while fleet utilization stays inside
	// [DownUtil, UpUtil].
	ControllerUpUtil   float64
	ControllerDownUtil float64
	// ControllerCooldown overrides the reactive controller's minimum
	// number of epochs between target changes (default 2).
	ControllerCooldown int
	// OverloadPolicy routes the scenario experiment's fleets through
	// admission control under the named overload policy (shed, degrade
	// or queue; see cluster.OverloadPolicies). Empty means no admission
	// control. The overload experiment ignores it and sweeps all three.
	OverloadPolicy string
	// OverloadMaxUtil overrides the per-node utilization the admission
	// capacity is computed at (default 0.85); OverloadBacklogSec the
	// queue policy's backlog bound in seconds of fleet capacity
	// (default 1).
	OverloadMaxUtil    float64
	OverloadBacklogSec float64
}

// DefaultOptions returns full-fidelity settings.
func DefaultOptions() Options {
	return Options{
		Seed:     2022,
		Duration: 400 * sim.Millisecond,
		Warmup:   40 * sim.Millisecond,
		Rates:    []float64{10e3, 50e3, 100e3, 200e3, 300e3, 400e3, 500e3},
	}
}

// QuickOptions returns reduced-duration settings for tests.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Duration = 80 * sim.Millisecond
	o.Warmup = 10 * sim.Millisecond
	o.Rates = []float64{10e3, 100e3, 500e3}
	return o
}

func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.Duration == 0 {
		o.Duration = d.Duration
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if len(o.Rates) == 0 {
		o.Rates = d.Rates
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	return o
}

// parallelMap runs fn(0..n-1) through the shared runner's worker pool
// and returns the first error by index. It nests: a task may fan out
// again (cluster runs fan out their nodes), so an experiment fans out
// all of its independent runs in one flat call and assembles, and
// derives from, the results in order afterwards. Tasks are claimed in
// index order, so a fan-out that knows its longest tasks maps the first
// indices to them, and they do not finish alone at its tail.
func parallelMap(n int, fn func(i int) error) error {
	return runner.Default().Each(n, fn)
}

// serviceGrid runs profile at every rate on every platform in one flat
// fan-out and returns grid[rate][platform]. fixedHz is nil or parallel
// to platforms: a non-zero entry pins that platform's clock. Runs are
// claimed from the last rate (the highest, in every built-in sweep)
// down, as simulation cost grows with the rate.
func (o Options) serviceGrid(profile workload.Profile, rates []float64, platforms []governor.Config, fixedHz []float64) ([][]server.Result, error) {
	grid := make([][]server.Result, len(rates))
	for i := range grid {
		grid[i] = make([]server.Result, len(platforms))
	}
	n := len(rates) * len(platforms)
	err := parallelMap(n, func(t int) error {
		t = n - 1 - t
		ri, pi := t/len(platforms), t%len(platforms)
		hz := 0.0
		if fixedHz != nil {
			hz = fixedHz[pi]
		}
		res, err := o.runService(platforms[pi], profile, rates[ri], hz)
		grid[ri][pi] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return grid, nil
}

// serviceConfig returns a single-node run of profile at rate on
// platform under the options' duration, warmup, seed, dispatch policy
// and load generator. Each study sets the knobs it varies on the
// result.
func (o Options) serviceConfig(platform governor.Config, profile workload.Profile, rate float64) server.Config {
	return server.Config{
		Platform:   platform,
		Profile:    profile,
		RatePerSec: rate,
		Duration:   o.Duration,
		Warmup:     o.Warmup,
		Seed:       o.Seed,
		Dispatch:   o.Dispatch,
		LoadGen:    o.LoadGen,

		ClosedLoopConnections: o.Connections,
	}
}

// fleetNode is the node template every fleet study replicates: the
// Memcached service on platform under o's seed, warm-up, dispatch
// policy and load generator. Each epoch brings its own window and rate.
func (o Options) fleetNode(platform governor.Config) server.Config {
	return server.Config{
		Platform: platform,
		Profile:  workload.Memcached(),
		Warmup:   o.Warmup,
		Seed:     o.Seed,
		Dispatch: o.Dispatch,
		LoadGen:  o.LoadGen,
	}
}

// run executes one simulation, memoized through the shared runner.
func run(cfg server.Config) (server.Result, error) {
	res, err := runner.Default().Run(cfg)
	if err != nil {
		return server.Result{}, fmt.Errorf("experiments: %s @ %.0f QPS: %w", cfg.Platform.Name, cfg.RatePerSec, err)
	}
	return res, nil
}

// runService executes one simulation with the experiment options;
// a non-zero fixedFreqHz pins the clock.
func (o Options) runService(platform governor.Config, profile workload.Profile, rate, fixedFreqHz float64) (server.Result, error) {
	cfg := o.serviceConfig(platform, profile, rate)
	cfg.FixedFreqHz = fixedFreqHz
	return run(cfg)
}
