package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// OverloadPolicyRun is one admission policy's cell of the overload
// study: the same AW fleet, same schedule, same reactive controller —
// only the overload policy differs, so every delta in the row is the
// policy's doing.
type OverloadPolicyRun struct {
	// Policy is the admission policy name (shed, degrade, queue).
	Policy string
	// Result is the controlled scenario run under that policy.
	Result cluster.ScenarioResult
}

// OverloadExpResult is the admission-control study: an AW fleet driven
// through a spike whose plateau exceeds the whole fleet's admission
// capacity, once per overload policy. It answers the robustness
// question the fault study leaves open: when demand — not supply — is
// the thing that breaks, what does each way of saying "no" (or not
// saying it) cost in power, tail latency and dropped work?
type OverloadExpResult struct {
	// Nodes is the fleet size; Epoch the re-dispatch interval; Total
	// the schedule length.
	Nodes int
	Epoch sim.Time
	Total sim.Time
	// MaxUtil is the admission ceiling's per-node utilization;
	// CapacityQPS the resulting full-fleet admission capacity.
	MaxUtil     float64
	CapacityQPS float64
	// BaseQPS and SpikeQPS are the schedule's trough and plateau rates
	// (the plateau deliberately exceeds CapacityQPS).
	BaseQPS  float64
	SpikeQPS float64
	// Runs holds one entry per overload policy, in OverloadPolicies
	// order.
	Runs []OverloadPolicyRun
}

// Overload runs the admission-control study: a spike schedule whose
// plateau offers 2.5x the fleet's admission capacity while the base
// load sits comfortably under it, driven through the reactive
// controller once per overload policy (shed, degrade, queue). Sizing
// the spike from the measured capacity — not a guessed rate — is what
// guarantees the plateau saturates every fleet the options can
// describe.
func Overload(o Options) (OverloadExpResult, error) {
	o = o.normalize()
	total := o.Duration
	epoch := o.Epoch
	if epoch == 0 {
		epoch = total / 12
	}
	maxUtil := o.OverloadMaxUtil
	if maxUtil == 0 {
		maxUtil = 0.85
	}
	nodes := cluster.Homogeneous(o.Nodes, o.fleetNode(governor.AW))
	capacity := cluster.AdmissionCapacityQPS(nodes, maxUtil)
	out := OverloadExpResult{
		Nodes:       o.Nodes,
		Epoch:       epoch,
		Total:       total,
		MaxUtil:     maxUtil,
		CapacityQPS: capacity,
		BaseQPS:     0.4 * capacity,
		SpikeQPS:    2.0 * capacity,
	}
	// The spike plateau covers the middle fifth, like the fault study's
	// crash window: pressure arrives, holds, and releases. The sizing
	// keeps the queue policy honest: the plateau banks capacity x T/5 of
	// backlog, and the post-spike headroom (0.6 x capacity over 2T/5)
	// drains it in T/3 — pressure that saturates, then a recovery that
	// completes inside the run.
	sched, err := scenario.Spike(out.BaseQPS, out.SpikeQPS/out.BaseQPS, total, 2*total/5, total/5)
	if err != nil {
		return out, err
	}
	policies := cluster.OverloadPolicies()
	runs := make([]OverloadPolicyRun, len(policies))
	err = parallelMap(len(policies), func(i int) error {
		res, err := cluster.RunScenario(cluster.ScenarioConfig{
			Nodes:       nodes,
			Schedule:    sched,
			Epoch:       epoch,
			Dispatch:    cluster.DispatchConsolidate,
			ParkDrained: true,
			Controller:  o.controllerSpec(cluster.ControllerReactive),
			Overload:    o.overloadSpec(policies[i]),
		})
		if err != nil {
			return fmt.Errorf("experiments: overload %s: %w", policies[i], err)
		}
		runs[i] = OverloadPolicyRun{Policy: policies[i], Result: res}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Runs = runs
	return out, nil
}

// Table renders the policy comparison — per policy, the fleet power
// and worst tail, the saturation exposure, the work dropped and the
// backlog left at the end of the run.
func (r OverloadExpResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Overload admission: shed vs degrade vs queue on an AW fleet (%d nodes, spike %.0f%% of capacity, reactive)",
			r.Nodes, 100*r.SpikeQPS/r.CapacityQPS),
		Headers: []string{"Policy", "Avg W", "Worst p99", "Sat ep", "Shed req", "End backlog/s", "Changes"},
	}
	for _, run := range r.Runs {
		t.AddRow(run.Policy,
			report.W(run.Result.AvgFleetPowerW),
			report.US(run.Result.WorstP99US),
			fmt.Sprintf("%d", run.Result.SaturatedEpochs),
			fmt.Sprintf("%.0f", run.Result.SheddedRequests),
			fmt.Sprintf("%.0f", run.Result.BacklogRate),
			fmt.Sprintf("%d", run.Result.ControllerChanges))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("admission capacity is %.2fM QPS (%d nodes at %.0f%% util); the spike plateau offers %.2fM",
			r.CapacityQPS/1e6, r.Nodes, 100*r.MaxUtil, r.SpikeQPS/1e6),
		"shed drops the excess at the door; degrade admits it and eats the tail latency;",
		"queue carries it as backlog and drains after the spike — sat ep counts saturated epochs")
	return t
}
