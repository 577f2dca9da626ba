package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
)

// liveClass is one timeline equivalence class of a Live run, grown
// epoch by epoch. Each epoch's rate partition is decided when the epoch
// is stepped — under a controller from the previous epoch's telemetry,
// under admission control from the backlog carried so far — so classes
// cannot be fixed up front from the schedule. Instead the fleet starts
// collapsed by base node key (nodes that are bit-identical simulations
// before any load arrives) and a class splits the first epoch its
// members are routed different rates or faults. Members whose
// timelines stay identical stay collapsed for the whole run, so the
// final classes are exactly the fleet's full-timeline equivalence
// classes.
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
	// results[e] is epoch e's measurement. It carries the epoch's rate;
	// the window and the fault are the fleet's (see Live.timeline).
	results []server.IntervalResult
	// rate and fault are the current epoch's routed per-node rate and
	// fault annotation, set by splitByRate before the epoch is stepped.
	rate  float64
	fault runner.Fault
	// hist caches the checkpoint encoding of results (see Live.Snapshot).
	// Only the class owning the history keeps it: a split-off copy or a
	// fork starts empty and encodes its own.
	hist encodedHistory
}

// initialGroups collapses the fleet by base node key: before any rates
// diverge, nodes with equal configurations (and the shared park flag)
// are bit-identical simulations. Uncacheable nodes cannot prove
// equivalence by key and stay singletons, as runner.TimelineKey refuses
// them. Every later class descends from one of these groups and runs
// its first member's config.
func initialGroups(c resolvedScenario) [][]int {
	var keys runner.KeyEncoder
	return groupByKey(len(c.Nodes), func(buf []byte, i int) ([]byte, bool) {
		return keys.AppendKey(buf, &c.Nodes[i])
	})
}

// initialLiveClasses gives each initial group its representative's
// fresh cursor, built in parallel like an epoch's fan-out.
func initialLiveClasses(c resolvedScenario, r *runner.Runner, groups [][]int) ([]*liveClass, error) {
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
// a copy of the measurements so far. Cloning is O(node state), and it
// runs here, serially, before the epoch's parallel fan-out, so no clone
// can race its parent's step. Member order and the first-member-owns-
// the-state rule keep the final class partition identical to what
// full-timeline classification of the realized rates and faults would
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
		// The scan runs over every member of every class each epoch, so it
		// compares the fields in place rather than building a key per
		// member.
		uniform := true
		for _, m := range cl.members[1:] {
			if rates[m] != first.rate || (faults != nil && faults[m] != first.fault) {
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
				sub.results = cl.results
				sub.hist = cl.hist
			} else {
				sub.ins = cl.ins.Clone()
				sub.results = append([]server.IntervalResult(nil), cl.results...)
			}
			subs = append(subs, sub)
		}
		out = append(out, subs...)
	}
	return out
}

// runEpoch advances every class one epoch at its routed rate and
// fault. Classes are independent simulations, so the fan-out is
// parallel.
func runEpoch(classes []*liveClass, window sim.Time, r *runner.Runner) error {
	return r.Each(len(classes), func(ci int) error {
		cl := classes[ci]
		iv, err := cl.ins.Step(runner.Interval{Window: window, Rate: cl.rate, Fault: cl.fault})
		if err != nil {
			return fmt.Errorf("cluster: node %d epoch %d: %w", cl.rep, len(cl.results), err)
		}
		cl.results = append(cl.results, iv)
		return nil
	})
}

// partitionOver routes rate across the given active set with the
// configured dispatch policy, expanded back to fleet order; nodes
// outside the set are routed nothing. An empty set routes nothing at
// all — the whole fleet is dark. up is in fleet order, so when it is a
// prefix of the fleet (no node down) the policy reads the fleet's own
// configs instead of copies, and when it is the whole fleet the
// policy's own slice is the result.
func partitionOver(c resolvedScenario, part partitionFunc, rate float64, up []int) []float64 {
	if len(up) == 0 {
		return make([]float64, len(c.Nodes))
	}
	upNodes := c.Nodes[:len(up)]
	if up[len(up)-1] != len(up)-1 {
		upNodes = make([]server.Config, len(up))
		for j, i := range up {
			upNodes[j] = c.Nodes[i]
		}
	}
	sub := part(upNodes, rate, c.TargetUtil)
	if len(up) == len(c.Nodes) {
		return sub
	}
	rates := make([]float64, len(c.Nodes))
	for j, i := range up {
		rates[i] = sub[j]
	}
	return rates
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
