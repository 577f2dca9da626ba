package cluster

import (
	"fmt"

	"repro/internal/server"
)

// Cluster dispatch policy names accepted by Config.Dispatch.
const (
	// DispatchSpread splits the aggregate load evenly across all nodes —
	// the fleet-level analogue of round-robin request placement, and the
	// policy under which a 1-node cluster reproduces the single-server
	// simulator exactly.
	DispatchSpread = "spread"
	// DispatchLeastLoaded splits the load proportionally to node
	// capacity, equalizing utilization across heterogeneous nodes (the
	// steady-state behavior of join-least-loaded routing).
	DispatchLeastLoaded = "least-loaded"
	// DispatchConsolidate packs the load onto as few nodes as possible,
	// filling each to TargetUtil before spilling onto the next, so the
	// remaining nodes sit fully idle (and, with ParkDrained, reach
	// package deep idle) — the fleet-level energy-proportionality
	// strategy the per-server packed dispatch policy approximates within
	// one machine.
	DispatchConsolidate = "consolidate"
)

// defaultTargetUtil is the consolidate fill level: high enough to drain
// most of the fleet at the paper's load points, low enough to keep the
// packed nodes' queueing tail within a latency SLO.
const defaultTargetUtil = 0.6

// Policies lists the cluster dispatch policy names.
func Policies() []string {
	return []string{DispatchSpread, DispatchLeastLoaded, DispatchConsolidate}
}

// capacityQPS estimates the rate node cfg sustains at 100% utilization:
// cores times the per-core service rate of its own profile. Heterogeneous
// fleets get per-node capacities from their per-node core counts and
// service-time distributions. It reads the two fields it needs in
// place: fleets pass every node through it, and Defaults would copy
// each config and build a C-state catalog per call.
func capacityQPS(cfg *server.Config) float64 {
	cores := cfg.Cores
	if cores == 0 {
		cores = server.DefaultCores
	}
	mean := float64(cfg.Profile.Service.Mean())
	if mean <= 0 {
		return 0
	}
	return float64(cores) * 1e9 / mean
}

// partitioner returns the rate-partition function for the named policy.
func partitioner(name string) (func(Config) []float64, error) {
	switch name {
	case "", DispatchSpread:
		return partitionSpread, nil
	case DispatchLeastLoaded:
		return partitionLeastLoaded, nil
	case DispatchConsolidate:
		return partitionConsolidate, nil
	default:
		return nil, fmt.Errorf("cluster: unknown dispatch policy %q (known: %v)", name, Policies())
	}
}

func partitionSpread(c Config) []float64 {
	rates := make([]float64, len(c.Nodes))
	per := c.RateQPS / float64(len(c.Nodes))
	for i := range rates {
		rates[i] = per
	}
	return rates
}

func partitionLeastLoaded(c Config) []float64 {
	rates := make([]float64, len(c.Nodes))
	var total float64
	caps := make([]float64, len(c.Nodes))
	for i := range c.Nodes {
		caps[i] = capacityQPS(&c.Nodes[i])
		total += caps[i]
	}
	if total <= 0 {
		return partitionSpread(c)
	}
	for i := range rates {
		rates[i] = c.RateQPS * caps[i] / total
	}
	return rates
}

func partitionConsolidate(c Config) []float64 {
	rates := make([]float64, len(c.Nodes))
	remaining := c.RateQPS
	var totalCap float64
	for i := range c.Nodes {
		room := c.TargetUtil * capacityQPS(&c.Nodes[i])
		totalCap += room
		if remaining <= 0 {
			continue
		}
		take := remaining
		if take > room {
			take = room
		}
		rates[i] = take
		remaining -= take
	}
	if remaining > 0 {
		// The fleet is offered more than TargetUtil everywhere: spill the
		// excess proportionally to capacity rather than dropping load.
		for i := range rates {
			if totalCap > 0 {
				rates[i] += remaining * (c.TargetUtil * capacityQPS(&c.Nodes[i])) / totalCap
			} else {
				rates[i] += remaining / float64(len(c.Nodes))
			}
		}
	}
	return rates
}
