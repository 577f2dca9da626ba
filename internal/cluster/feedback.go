package cluster

import (
	"fmt"
	"sort"

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
	// ins is the representative's fault-aware timeline cursor. Nil on a
	// class just split off its parent: the epoch executor then
	// reconstructs the cursor by replaying the realized prefix (exact by
	// determinism — the split class shared the parent's rates and faults
	// until now).
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
// classifier.
func initialLiveClasses(c resolvedScenario) []*liveClass {
	groups := groupByKey(len(c.Nodes), func(buf []byte, i int) ([]byte, bool) {
		return runner.AppendKey(buf, c.Nodes[i])
	})
	classes := make([]*liveClass, len(groups))
	for ci, members := range groups {
		classes[ci] = &liveClass{rep: members[0], members: members, node: c.Nodes[members[0]]}
	}
	return classes
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
// inherits the parent's live cursor; the others start with ins nil plus
// a copy of the realized prefix, and the epoch executor replays them
// onto fresh cursors. Member order and the first-member-owns-the-state
// rule keep the final class partition identical to what full-timeline
// classification of the realized rates and faults would produce. faults
// is this epoch's per-node annotation row; nil means healthy.
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
// and fault, reconstructing freshly split classes first. Classes are
// independent simulations, so the fan-out is parallel; a split class's
// replay is part of its own task.
func runControlledEpoch(classes []*liveClass, window sim.Time, c resolvedScenario, r *runner.Runner) error {
	return r.Each(len(classes), func(ci int) error {
		cl := classes[ci]
		if cl.ins == nil {
			cur, err := runner.NewCursor(cl.node, c.ParkDrained)
			if err != nil {
				return fmt.Errorf("cluster: node %d split replay: %w", cl.rep, err)
			}
			for i, iv := range cl.intervals {
				// The replayed measurements are bit-identical to the prefix
				// copied from the parent at split time; only the cursor
				// state (instance, crash/restart history) matters here.
				if _, err := cur.Step(iv); err != nil {
					return fmt.Errorf("cluster: node %d split replay interval %d: %w", cl.rep, i, err)
				}
			}
			cl.ins = cur
		}
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
// all — the whole fleet is dark.
func partitionOver(c resolvedScenario, part func(Config) []float64, rate float64, up []int) []float64 {
	rates := make([]float64, len(c.Nodes))
	if len(up) == 0 {
		return rates
	}
	upNodes := make([]server.Config, len(up))
	for j, i := range up {
		upNodes[j] = c.Nodes[i]
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

// runScenarioControlled executes the epoch plan under a fleet
// controller: the plan's schedule windows are kept, but each epoch's
// rate partition is decided at run time — by the controller for the
// closed-loop policies, or replayed verbatim from the precomputed plan
// for the oracle. The engine is incremental: live classes extend their
// timelines epoch by epoch, a telemetry sample is folded at every
// boundary, and the controller's next decision is taken against the
// *finished* epoch's telemetry (one full epoch of lag, the honest
// feedback regime). After the last epoch the realized timelines are
// repackaged as ordinary timeline classes, so replica error bars and
// all per-epoch/per-phase aggregation reuse the open-loop machinery
// unchanged — which is also what lets the oracle reproduce the
// open-loop goldens bit-for-bit through this engine.
func runScenarioControlled(c resolvedScenario, plan []epochWindow, faults [][]runner.Fault, part func(Config) []float64, r *runner.Runner, out *ScenarioResult) error {
	n := len(c.Nodes)
	oracle := c.Controller.New == nil && c.Controller.Name == ControllerOracle
	ctrl := newController(c.Controller, FleetInfo{
		Nodes:      n,
		PerNodeQPS: meanCapacityQPS(c.Nodes),
		TargetUtil: c.Controller.TargetUtil,
		Epoch:      c.Epoch,
	})

	adm := c.newAdmission()
	classes := initialLiveClasses(c)
	realized := make([]epochWindow, len(plan))
	targets := make([]int, len(plan))
	target := n // cold start: everything active until telemetry arrives
	var tel FleetTelemetry
	for e, pw := range plan {
		var frow []runner.Fault
		if faults != nil {
			frow = faults[e]
		}
		var rates []float64
		var acct overloadAccount
		if oracle || ctrl == nil {
			// The plan's rates are already fault- and admission-adjusted
			// (crashed nodes carry zero; clipped epochs their admitted
			// partition), so the oracle replays rates and admission
			// accounts verbatim and its targets exclude dark nodes.
			rates = pw.rates
			acct = pw.account()
			if adm != nil {
				adm.backlog = pw.backlogReq
			}
			target = 0
			for _, rt := range rates {
				if rt > 0 {
					target++
				}
			}
		} else {
			if e > 0 {
				target = clampTarget(ctrl.Observe(tel), n)
			}
			// Run-time admission: the controller's shrunken active set is
			// the capacity the policy admits against — a consolidated
			// fleet saturates before a fully unparked one would.
			up := activeSet(c, target, frow)
			route := pw.rate
			if adm != nil {
				winSec := float64(pw.end-pw.start) / 1e9
				route, acct = adm.admit(pw.rate, c.overloadCapacity(up), winSec)
			}
			rates = partitionOver(c, part, route, up)
		}
		targets[e] = target
		realized[e] = epochWindow{
			start: pw.start, end: pw.end, rate: pw.rate, phase: pw.phase, rates: rates,
			saturated: acct.saturated, shedded: acct.shedded, backlogReq: acct.backlogReq,
		}

		classes = splitByRate(classes, rates, frow)
		if err := runControlledEpoch(classes, pw.end-pw.start, c, r); err != nil {
			return err
		}
		tel = fleetTelemetry(e, realized[e], classes, c.CompactNodes, n)
	}

	// Repackage the realized timelines as ordinary timeline classes,
	// ordered like the open-loop classifier's output (first-member
	// position), and hand everything downstream to the open-loop
	// aggregation: replicas, CIs, park bookkeeping, compact expansion.
	sort.Slice(classes, func(i, j int) bool { return classes[i].rep < classes[j].rep })
	tclasses := make([]timelineClass, len(classes))
	for ci, cl := range classes {
		tclasses[ci] = timelineClass{
			rep:     cl.rep,
			members: cl.members,
			spec:    runner.TimelineSpec{Node: cl.node, Park: c.ParkDrained, Intervals: cl.intervals},
			results: make([][]server.IntervalResult, c.Replicas+1),
		}
		tclasses[ci].results[0] = cl.results
	}
	out.Classes = len(tclasses)
	out.ReplicaRuns = len(tclasses) * c.Replicas
	r.NoteClassDedup(n, len(tclasses), out.ReplicaRuns)
	if c.Replicas > 0 {
		if err := runControlledReplicas(tclasses, c.Replicas, r); err != nil {
			return err
		}
	}
	if c.CompactNodes {
		warmEpochsCompact(c, realized, tclasses, out)
	} else {
		warmEpochsExpanded(c, realized, tclasses, out)
	}
	out.CI = scenarioClassCI(tclasses, realized, c.Replicas)

	out.Controller = c.Controller.displayName()
	prev := -1
	for e := range out.Epochs {
		out.Epochs[e].TargetNodes = targets[e]
		if prev >= 0 && targets[e] != prev {
			out.ControllerChanges++
		}
		prev = targets[e]
	}
	return nil
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
	for _, n := range nodes {
		sum += capacityQPS(n)
	}
	return sum / float64(len(nodes))
}
