package cluster

import (
	"fmt"
	"slices"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// CI is a two-sided 95% confidence interval.
type CI struct {
	Lo, Hi float64
}

// FleetCI carries the replica-ensemble 95% confidence intervals a
// scenario run with Replicas > 0 reports. Each interval is a Student-t
// interval over Samples independent virtual fleets: for replica index r,
// every class contributes its r-th measurement multiplied by the class
// size, so the ensemble spread is exactly the per-class sample variance
// propagated through the fleet sums (and through the max, for worst-p99,
// which has no closed-form propagation). Intervals are centered on the
// ensemble mean; the point-estimate fields on EpochResult.Fleet and
// ScenarioResult remain the representatives' exact measurements.
type FleetCI struct {
	// Samples is the ensemble size: the representative plus K replicas.
	Samples int
	// FleetPowerW bounds the total fleet package power (W).
	FleetPowerW CI
	// QPSPerWatt bounds completions per joule.
	QPSPerWatt CI
	// WorstP99US bounds the worst per-node server p99 (us).
	WorstP99US CI
}

// timelineClass is one timeline equivalence class of the fleet: every
// member node is a bit-identical simulation (same node fingerprint,
// park flag and per-epoch rate timeline — the runner.TimelineKey), so
// one representative run stands for all of them, plus K seeded replicas
// for error bars.
type timelineClass struct {
	// rep is the representative: the class's first member node index.
	rep int
	// members lists every member node index, in fleet order.
	members []int
	// spec is the representative's timeline.
	spec runner.TimelineSpec
	// results[r][e] is replica r's epoch-e measurement; replica 0 is the
	// representative under its own natural seed.
	results [][]server.IntervalResult
}

// classifyTimelines groups the fleet into timeline equivalence classes
// keyed by runner.TimelineKey, preserving fleet order (a class sits at
// its first member's position). Uncacheable nodes (custom catalog,
// trace hook, live profile) cannot prove equivalence by key and stay
// singleton classes, which also makes a deliberately heterogeneous
// fleet degrade gracefully to one class per node — exactly today's
// behavior, with today's cost. Fault annotations (faults[e][i], nil on
// healthy runs) are part of each interval and therefore of the class
// key, so a faulted node can never collapse with a healthy one.
func classifyTimelines(c resolvedScenario, plan []epochWindow, faults [][]runner.Fault) []timelineClass {
	// One scratch interval list serves every node's key; a class copies
	// out its representative's list only once it exists.
	scratch := make([]runner.Interval, len(plan))
	specOf := func(i int) runner.TimelineSpec {
		for e, pw := range plan {
			scratch[e] = runner.Interval{Window: pw.end - pw.start, Rate: pw.rates[i]}
			if faults != nil {
				scratch[e].Fault = faults[e][i]
			}
		}
		return runner.TimelineSpec{Node: c.Nodes[i], Park: c.ParkDrained, Intervals: scratch}
	}
	groups := groupByKey(len(c.Nodes), func(buf []byte, i int) ([]byte, bool) {
		return runner.AppendTimelineKey(buf, specOf(i))
	})
	classes := make([]timelineClass, len(groups))
	for ci, members := range groups {
		spec := specOf(members[0])
		spec.Intervals = slices.Clone(spec.Intervals)
		classes[ci] = timelineClass{rep: members[0], members: members, spec: spec}
	}
	return classes
}

// groupByKey partitions nodes 0..n-1 into classes of equal key, in
// first-member order, each class listing its members in fleet order.
// key appends node i's key to buf and reports false for a node that
// cannot prove equivalence, which stays a singleton. Keys are encoded
// into one reused buffer and a map lookup on string(buf) does not
// allocate, so the work allocates per class, not per node: a fleet of a
// million identical nodes allocates what a fleet of ten does, plus two
// n-length index slices.
func groupByKey(n int, key func(buf []byte, i int) ([]byte, bool)) [][]int {
	classOf := make([]int, n)
	var sizes []int
	index := make(map[string]int)
	var buf []byte
	for i := 0; i < n; i++ {
		var ok bool
		if buf, ok = key(buf[:0], i); ok {
			if ci, seen := index[string(buf)]; seen {
				classOf[i] = ci
				sizes[ci]++
				continue
			}
			index[string(buf)] = len(sizes)
		}
		classOf[i] = len(sizes)
		sizes = append(sizes, 1)
	}
	// Carve every member list out of one backing array; the capacity
	// bound makes a later append to one class reallocate rather than
	// overwrite its neighbour.
	backing := make([]int, n)
	groups := make([][]int, len(sizes))
	off := 0
	for ci, size := range sizes {
		groups[ci] = backing[off : off : off+size]
		off += size
	}
	for i, ci := range classOf {
		groups[ci] = append(groups[ci], i)
	}
	return groups
}

// runClasses executes every class representative plus its k seeded
// replicas, each as one independent pipelined runner task. Replica r of
// class c runs the representative's exact spec under seed
// xrand.ClassReplicaSeed(c, r) — drawn from the plane disjoint from all
// node and epoch-mixed seeds, so a replica can never alias a real
// node's simulation in the memo cache.
func runClasses(classes []timelineClass, k int, r *runner.Runner) error {
	per := k + 1
	for ci := range classes {
		classes[ci].results = make([][]server.IntervalResult, per)
	}
	return r.Each(len(classes)*per, func(t int) error {
		ci, rep := t/per, t%per
		spec := classes[ci].spec
		if rep > 0 {
			spec.Node.Seed = xrand.ClassReplicaSeed(ci, rep)
		}
		res, err := r.RunTimeline(spec)
		if err != nil {
			return fmt.Errorf("cluster: node %d timeline (class %d replica %d): %w",
				classes[ci].rep, ci, rep, err)
		}
		classes[ci].results[rep] = res
		return nil
	})
}

// ciOf returns the 95% Student-t interval around the mean of xs.
func ciOf(xs []float64) CI {
	mean, half := stats.MeanCI95(xs)
	return CI{Lo: mean - half, Hi: mean + half}
}

// epochClassCI builds epoch e's confidence intervals from the k+1
// replica ensembles, or nil when no replicas were requested.
func epochClassCI(classes []timelineClass, e, k int) *FleetCI {
	if k <= 0 {
		return nil
	}
	n := k + 1
	power := make([]float64, n)
	qps := make([]float64, n)
	worst := make([]float64, n)
	for ci := range classes {
		cl := &classes[ci]
		m := float64(len(cl.members))
		for rep := 0; rep < n; rep++ {
			res := &cl.results[rep][e].Result
			power[rep] += m * res.PackagePowerW
			qps[rep] += m * res.CompletedPerSec
			if res.Server.P99US > worst[rep] {
				worst[rep] = res.Server.P99US
			}
		}
	}
	qpw := make([]float64, n)
	for rep, p := range power {
		if p > 0 {
			qpw[rep] = qps[rep] / p
		}
	}
	return &FleetCI{Samples: n, FleetPowerW: ciOf(power), QPSPerWatt: ciOf(qpw), WorstP99US: ciOf(worst)}
}

// scenarioClassCI builds the whole-run confidence intervals: each
// replica index yields one virtual whole-scenario fleet (time-weighted
// mean power, completions per joule, max worst-p99 over epochs), and
// the intervals are t-intervals over those k+1 runs.
func scenarioClassCI(classes []timelineClass, plan []epochWindow, k int) *FleetCI {
	if k <= 0 {
		return nil
	}
	n := k + 1
	energy := make([]float64, n)
	comps := make([]float64, n)
	worst := make([]float64, n)
	var totalSec float64
	for e, pw := range plan {
		winSec := float64(pw.end-pw.start) / 1e9
		totalSec += winSec
		for ci := range classes {
			cl := &classes[ci]
			m := float64(len(cl.members))
			for rep := 0; rep < n; rep++ {
				res := &cl.results[rep][e].Result
				energy[rep] += m * res.PackagePowerW * winSec
				comps[rep] += m * res.CompletedPerSec * winSec
				if res.Server.P99US > worst[rep] {
					worst[rep] = res.Server.P99US
				}
			}
		}
	}
	power := make([]float64, n)
	qpw := make([]float64, n)
	for rep := range energy {
		if totalSec > 0 {
			power[rep] = energy[rep] / totalSec
		}
		if energy[rep] > 0 {
			qpw[rep] = comps[rep] / energy[rep]
		}
	}
	return &FleetCI{Samples: n, FleetPowerW: ciOf(power), QPSPerWatt: ciOf(qpw), WorstP99US: ciOf(worst)}
}
