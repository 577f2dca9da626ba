// Package cluster composes N per-node server simulations into one fleet
// run, extending the single-server model toward the paper's Table 5
// framing: instead of extrapolating per-server watt savings to a fleet,
// the fleet is simulated and its power measured.
//
// A cluster run is three stages:
//
//  1. A cluster-level dispatcher partitions the aggregate offered load
//     across the nodes (spread, least-loaded, or the power-aware
//     consolidate policy that packs load onto few nodes so the rest can
//     reach package deep idle).
//  2. Every node — a full server.Config, possibly heterogeneous (mixed
//     catalogs, core counts, platform configurations) — runs as an
//     independent simulation through the shared internal/runner executor,
//     so nodes execute in parallel and identical node configs are
//     memoized across fleet sweeps.
//  3. A cluster collector aggregates the per-node server.Results into
//     fleet power, energy proportionality, and tail latency.
//
// Nodes are coupled only through the load partition: requests never
// migrate between nodes mid-run, which mirrors the connection-affinity
// load balancing of the paper's Mutilate setup and keeps each node's
// simulation bit-for-bit identical to a standalone server.RunConfig with
// the same per-node rate. A 1-node spread cluster therefore reproduces
// RunService exactly (see TestOneNodeSpreadMatchesRunService).
package cluster

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/server"
)

// Config describes one fleet simulation.
type Config struct {
	// Nodes are the per-node server configurations. Each node's
	// RatePerSec is overwritten by the cluster dispatch policy; every
	// other field (catalog, platform, core count, seed, ...) is honored
	// as given, so heterogeneous fleets mix freely.
	Nodes []server.Config
	// RateQPS is the aggregate offered load partitioned across nodes.
	RateQPS float64
	// Dispatch names the cluster-level load partitioning policy
	// (default spread; see Policies).
	Dispatch string
	// TargetUtil is the per-node utilization the consolidate policy
	// fills nodes to before spilling onto the next (default 0.6).
	TargetUtil float64
	// ParkDrained, when set, parks nodes the policy assigned zero load:
	// OS noise is disabled (a quiesced, tickless node) and the package
	// idle-state model is enabled, so drained nodes fall to deep package
	// idle instead of burning full uncore power on housekeeping wake-ups.
	// Nodes that receive load are never modified.
	ParkDrained bool
	// Runner executes the node simulations (default runner.Default()).
	Runner *runner.Runner
}

// Homogeneous returns n copies of template with per-node seeds
// template.Seed, template.Seed+1, ... so nodes see independent arrival
// and service randomness while the whole fleet stays reproducible from
// one seed.
func Homogeneous(n int, template server.Config) []server.Config {
	nodes := make([]server.Config, n)
	for i := range nodes {
		nodes[i] = template
		nodes[i].Seed = template.Seed + uint64(i)
	}
	return nodes
}

// Validate rejects unusable fleet configurations. Per-node configs are
// validated by the node simulations themselves.
func (c Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	if c.RateQPS < 0 {
		return fmt.Errorf("cluster: negative rate")
	}
	if c.TargetUtil < 0 || c.TargetUtil > 1 {
		return fmt.Errorf("cluster: TargetUtil %v out of (0,1]", c.TargetUtil)
	}
	if _, err := partitioner(c.Dispatch); err != nil {
		return err
	}
	for i := range c.Nodes {
		if n := &c.Nodes[i]; n.LoadGen == server.LoadClosedLoop || n.ClosedLoopConnections > 0 {
			return fmt.Errorf("cluster: node %d uses closed-loop load; the cluster dispatcher partitions open-loop rates", i)
		}
	}
	return nil
}

// park returns cfg quiesced for a zero-load window: no OS housekeeping
// wake-ups, the package idle state armed, and the deepest enabled
// C-state selected outright (the menu governor's cold-start prediction
// is pessimistically short, which would strand never-woken cores in C1;
// a fleet manager draining a node sends it to deepest idle instead). The
// bursty generator rejects a zero rate, so drained nodes always run the
// open-loop generator (which schedules nothing at rate 0).
func park(cfg server.Config) server.Config {
	cfg.OSNoisePeriod = -1
	cfg.PkgIdleEnabled = true
	cfg.GovernorPolicy = governor.PolicyStatic
	cfg.LoadGen = server.LoadOpenLoop
	return cfg
}

// Run partitions the load, simulates every node in parallel and
// aggregates the fleet result.
func Run(c Config) (Result, error) {
	if c.Dispatch == "" {
		c.Dispatch = DispatchSpread
	}
	if c.TargetUtil == 0 {
		c.TargetUtil = defaultTargetUtil
	}
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	part, err := partitioner(c.Dispatch)
	if err != nil {
		return Result{}, err
	}
	rates := part(c)
	r := c.Runner
	if r == nil {
		r = runner.Default()
	}
	nodes := make([]NodeResult, len(c.Nodes))
	err = r.Each(len(c.Nodes), func(i int) error {
		cfg := c.Nodes[i]
		cfg.RatePerSec = rates[i]
		parked := false
		if c.ParkDrained && rates[i] == 0 {
			cfg = park(cfg)
			parked = true
		}
		res, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
		nodes[i] = NodeResult{Node: i, RateQPS: rates[i], Parked: parked, Result: res}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return aggregate(c, nodes), nil
}
