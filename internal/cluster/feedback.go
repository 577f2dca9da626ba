package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// liveClass is one timeline equivalence class of a *controlled* run,
// grown epoch by epoch. Under a controller the epoch plan is no longer
// static — each epoch's rate partition depends on the previous epoch's
// realized telemetry — so classes cannot be fixed up front from the
// schedule; instead the fleet starts collapsed by base node key (nodes
// that are bit-identical simulations before any load arrives) and a
// class splits the first epoch the controller's decisions route its
// members different rates. Members whose decision streams stay
// identical stay collapsed for the whole run, preserving the
// class-collapse economics of the open-loop warm path.
type liveClass struct {
	// rep is the representative: the class's first member node index.
	rep int
	// members lists every member node index, in fleet order.
	members []int
	// node is the representative's configuration.
	node server.Config
	// ins is the representative's fault-aware timeline cursor. A class
	// split off its parent starts from a clone of the parent's cursor:
	// the two shared every rate and fault until now, so their warm
	// states are identical.
	ins *runner.TimelineCursor
	// intervals is the realized rate-and-fault timeline so far.
	intervals []runner.Interval
	// results[e] is epoch e's measurement.
	results []server.IntervalResult
	// rate is the current epoch's routed per-node rate.
	rate float64
	// fault is the current epoch's fault annotation.
	fault runner.Fault
}

// initialLiveClasses collapses the fleet by base node key: before any
// rates diverge, nodes with equal configurations (and the shared park
// flag) are bit-identical simulations. Uncacheable nodes cannot prove
// equivalence by key and stay singletons, exactly as in the open-loop
// classifier. Each class gets its representative's fresh cursor, built
// in parallel like an epoch's fan-out.
func initialLiveClasses(c resolvedScenario, r *runner.Runner) ([]*liveClass, error) {
	var keys runner.KeyEncoder
	groups := groupByKey(len(c.Nodes), func(buf []byte, i int) ([]byte, bool) {
		return keys.AppendKey(buf, &c.Nodes[i])
	})
	classes := make([]*liveClass, len(groups))
	err := r.Each(len(groups), func(ci int) error {
		members := groups[ci]
		cur, err := runner.NewCursor(c.Nodes[members[0]], c.ParkDrained)
		if err != nil {
			return fmt.Errorf("cluster: node %d: %w", members[0], err)
		}
		classes[ci] = &liveClass{rep: members[0], members: members, node: c.Nodes[members[0]], ins: cur}
		return nil
	})
	return classes, err
}

// rateFault is splitByRate's bucket key: members stay collapsed only
// while they share both the routed rate and the epoch's fault
// annotation — a faulted node can never ride a healthy representative.
type rateFault struct {
	rate  float64
	fault runner.Fault
}

// splitByRate partitions the classes so that every class's members
// share this epoch's routed rate and fault annotation, setting each
// class's rate and fault fields. A sub-class keeping the first member
// inherits the parent's live cursor; the others take a clone of it plus
// a copy of the realized prefix. Cloning is O(node state), and it runs
// here, serially, before the epoch's parallel fan-out, so no clone can
// race its parent's step. Member order and the first-member-owns-the-
// state rule keep the final class partition identical to what full-
// timeline classification of the realized rates and faults would
// produce. faults is this epoch's per-node annotation row; nil means
// healthy.
func splitByRate(classes []*liveClass, rates []float64, faults []runner.Fault) []*liveClass {
	faultOf := func(m int) runner.Fault {
		if faults == nil {
			return runner.Fault{}
		}
		return faults[m]
	}
	out := make([]*liveClass, 0, len(classes))
	for _, cl := range classes {
		first := rateFault{rates[cl.members[0]], faultOf(cl.members[0])}
		uniform := true
		for _, m := range cl.members[1:] {
			if (rateFault{rates[m], faultOf(m)}) != first {
				uniform = false
				break
			}
		}
		if uniform {
			cl.rate, cl.fault = first.rate, first.fault
			out = append(out, cl)
			continue
		}
		// Bucket members by (rate, fault), preserving fleet order within
		// and across buckets (first-seen order).
		var subs []*liveClass
		bucket := map[rateFault]int{}
		for _, m := range cl.members {
			rf := rateFault{rates[m], faultOf(m)}
			if si, ok := bucket[rf]; ok {
				subs[si].members = append(subs[si].members, m)
				continue
			}
			bucket[rf] = len(subs)
			sub := &liveClass{
				rep:     m,
				members: []int{m},
				node:    cl.node,
				rate:    rf.rate,
				fault:   rf.fault,
			}
			if len(subs) == 0 {
				// First bucket holds members[0]: it keeps the parent's live
				// state and history in place.
				sub.ins = cl.ins
				sub.intervals = cl.intervals
				sub.results = cl.results
			} else {
				sub.ins = cl.ins.Clone()
				sub.intervals = append([]runner.Interval(nil), cl.intervals...)
				sub.results = append([]server.IntervalResult(nil), cl.results...)
			}
			subs = append(subs, sub)
		}
		out = append(out, subs...)
	}
	return out
}

// runControlledEpoch advances every class one epoch at its routed rate
// and fault. Classes are independent simulations, so the fan-out is
// parallel.
func runControlledEpoch(classes []*liveClass, window sim.Time, r *runner.Runner) error {
	return r.Each(len(classes), func(ci int) error {
		cl := classes[ci]
		next := runner.Interval{Window: window, Rate: cl.rate, Fault: cl.fault}
		iv, err := cl.ins.Step(next)
		if err != nil {
			return fmt.Errorf("cluster: node %d epoch %d: %w", cl.rep, len(cl.results), err)
		}
		cl.results = append(cl.results, iv)
		cl.intervals = append(cl.intervals, next)
		return nil
	})
}

// activeRates partitions the epoch's offered rate across the target-
// node active prefix with the configured dispatch policy; the tail is
// routed nothing (and parks, under ParkDrained). The offered rate
// itself is known to the dispatcher — routing is instantaneous; it is
// the *capacity* (which nodes are awake) that lags by the controller's
// decision delay. faults is this epoch's fault row (nil when healthy):
// crashed nodes are skipped, so the active set is the first target *up*
// nodes — the dispatcher knows a dead server when it sees one, even if
// the controller's sizing decision lags. With fewer than target up
// nodes the whole surviving fleet serves.
func activeRates(c resolvedScenario, part func(Config) []float64, rate float64, target int, faults []runner.Fault) []float64 {
	return partitionOver(c, part, rate, activeSet(c, target, faults))
}

// activeSet returns the active node indices for a controller target:
// the first target up nodes in fleet order (crashed nodes skipped).
// With fewer than target up nodes the whole surviving fleet serves.
func activeSet(c resolvedScenario, target int, faults []runner.Fault) []int {
	up := make([]int, 0, target)
	for i := range c.Nodes {
		if faults != nil && faults[i].Down {
			continue
		}
		up = append(up, i)
		if len(up) == target {
			break
		}
	}
	return up
}

// partitionOver routes rate across the given active set with the
// configured dispatch policy, expanded back to fleet order; nodes
// outside the set are routed nothing. An empty set routes nothing at
// all — the whole fleet is dark. up is in fleet order, so when it is a
// prefix of the fleet (no node down) the policy reads the fleet's own
// configs instead of copies.
func partitionOver(c resolvedScenario, part func(Config) []float64, rate float64, up []int) []float64 {
	rates := make([]float64, len(c.Nodes))
	if len(up) == 0 {
		return rates
	}
	upNodes := c.Nodes[:len(up)]
	if up[len(up)-1] != len(up)-1 {
		upNodes = make([]server.Config, len(up))
		for j, i := range up {
			upNodes[j] = c.Nodes[i]
		}
	}
	sub := part(Config{
		Nodes:      upNodes,
		RateQPS:    rate,
		Dispatch:   c.Dispatch,
		TargetUtil: c.TargetUtil,
	})
	for j, i := range up {
		rates[i] = sub[j]
	}
	return rates
}

// runControlledReplicas runs the K seeded replicas of every realized
// class timeline, exactly as the open-loop runClasses does for
// replicas: replica rep of class ci re-runs the representative's
// realized spec under seed xrand.ClassReplicaSeed(ci, rep), through the
// memoized RunTimeline.
func runControlledReplicas(classes []timelineClass, k int, r *runner.Runner) error {
	return r.Each(len(classes)*k, func(t int) error {
		ci, rep := t/k, t%k+1
		spec := classes[ci].spec
		spec.Node.Seed = xrand.ClassReplicaSeed(ci, rep)
		res, err := r.RunTimeline(spec)
		if err != nil {
			return fmt.Errorf("cluster: node %d realized timeline (class %d replica %d): %w",
				classes[ci].rep, ci, rep, err)
		}
		classes[ci].results[rep] = res
		return nil
	})
}

// meanCapacityQPS is the fleet's mean per-node capacity — the sizing
// unit controllers provision in.
func meanCapacityQPS(nodes []server.Config) float64 {
	if len(nodes) == 0 {
		return 0
	}
	var sum float64
	for i := range nodes {
		sum += capacityQPS(&nodes[i])
	}
	return sum / float64(len(nodes))
}
