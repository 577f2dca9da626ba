// Package cluster composes N per-node server simulations into one fleet
// run, extending the single-server model toward the paper's Table 5
// framing: instead of extrapolating per-server watt savings to a fleet,
// the fleet is simulated and its power measured.
//
// There is one fleet engine, Live. It steps a ScenarioConfig epoch by
// epoch, and RunScenario is a Live stepped to the end. Each epoch:
//
//  1. A cluster-level dispatcher partitions the window's offered load
//     across the nodes (spread, least-loaded, or the power-aware
//     consolidate policy that packs load onto few nodes so the rest can
//     reach package deep idle).
//  2. Every node — a full server.Config, possibly heterogeneous (mixed
//     catalogs, core counts, platform configurations) — advances one
//     window on its resumable server.Instance. Nodes that are
//     bit-identical simulations share one instance (a timeline
//     equivalence class), and the classes step in parallel through the
//     shared internal/runner executor.
//  3. A cluster collector aggregates the per-node measurements into
//     fleet power, energy proportionality, and tail latency.
//
// A static fleet at one rate is the degenerate case: a constant
// schedule in one epoch, whose Epochs[0].Fleet is the fleet result.
// Nodes are coupled only through the load partition: requests never
// migrate between nodes mid-run, which mirrors the connection-affinity
// load balancing of the paper's Mutilate setup. A node's first interval
// is bit-for-bit a standalone server.RunConfig at its routed rate, so a
// 1-node spread fleet reproduces RunService exactly (see
// TestOneNodeSpreadMatchesRunService).
package cluster

import "repro/internal/server"

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
