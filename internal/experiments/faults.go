package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// FaultControllerRun is one controller's cell of the fault study: the
// same AW fleet over the same spike schedule, once healthy and once with
// the crash faults injected, so every delta in the row is attributable
// to the faults alone.
type FaultControllerRun struct {
	// Controller is the fleet controller name.
	Controller string
	// Healthy and Faulted are the two runs, epoch windows aligned.
	Healthy cluster.ScenarioResult
	Faulted cluster.ScenarioResult
}

// FaultsExpResult is the crash-under-spike robustness study: an AW
// fleet driven through a 4x load spike while part of the fleet crashes
// across the spike plateau, once per fleet controller. It answers the
// control-plane question the healthy scenario tables cannot: when
// machines die exactly when load arrives, how much worse does a
// feedback controller fare than the omniscient plan — and what do the
// crash/restart cycles themselves cost in power and tail latency?
type FaultsExpResult struct {
	// Nodes is the fleet size; Crashed how many of them crash.
	Nodes   int
	Crashed int
	// Epoch is the re-dispatch interval; Total the schedule length.
	Epoch sim.Time
	Total sim.Time
	// CrashStart / CrashEnd is the crash window on the schedule clock
	// (the spike plateau).
	CrashStart sim.Time
	CrashEnd   sim.Time
	// Runs holds one entry per controller (oracle, reactive).
	Runs []FaultControllerRun
}

// Faults runs the crash-under-spike study: a spike schedule at the
// controller-study base rate, with the first quarter of the fleet (at
// least one node) crashing over the spike's middle-fifth plateau —
// capacity vanishes at the moment demand quadruples. Each controller
// (oracle, then reactive) drives a healthy and a faulted AW fleet under
// consolidate+park, so the table isolates both the fault cost per
// controller and the controller gap under faults.
func Faults(o Options) (FaultsExpResult, error) {
	o = o.normalize()
	total := o.Duration
	epoch := o.Epoch
	if epoch == 0 {
		epoch = total / 12
	}
	crashed := o.Nodes / 4
	if crashed < 1 {
		crashed = 1
	}
	out := FaultsExpResult{
		Nodes:   o.Nodes,
		Crashed: crashed,
		Epoch:   epoch,
		Total:   total,
		// The spike shape holds 4x over the middle fifth of the schedule;
		// the crash window covers exactly that plateau.
		CrashStart: 2 * total / 5,
		CrashEnd:   3 * total / 5,
	}
	spec := cluster.FaultSpec{}
	for i := 0; i < crashed; i++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeFault{
			Node: i, Kind: cluster.FaultCrash,
			Start: out.CrashStart, End: out.CrashEnd,
		})
	}
	sched, err := scenario.ByName(scenario.NameSpike, ctrlScenarioQPSPerNode*float64(o.Nodes), total)
	if err != nil {
		return out, err
	}
	fleet := func(ctrl string, faults cluster.FaultSpec) (cluster.ScenarioResult, error) {
		res, err := cluster.RunScenario(cluster.ScenarioConfig{
			Nodes:       cluster.Homogeneous(o.Nodes, o.fleetNode(governor.AW)),
			Schedule:    sched,
			Epoch:       epoch,
			Dispatch:    cluster.DispatchConsolidate,
			ParkDrained: true,
			Controller:  o.controllerSpec(ctrl),
			Faults:      faults,
		})
		if err != nil {
			return cluster.ScenarioResult{}, fmt.Errorf("experiments: faults %s: %w", ctrl, err)
		}
		return res, nil
	}
	// One flat fan-out over controller x {healthy, faulted}.
	ctrls := []string{cluster.ControllerOracle, cluster.ControllerReactive}
	specs := []cluster.FaultSpec{{}, spec}
	fleets := make([]cluster.ScenarioResult, len(ctrls)*len(specs))
	err = parallelMap(len(fleets), func(t int) (err error) {
		fleets[t], err = fleet(ctrls[t/len(specs)], specs[t%len(specs)])
		return err
	})
	if err != nil {
		return out, err
	}
	for i, ctrl := range ctrls {
		out.Runs = append(out.Runs, FaultControllerRun{
			Controller: ctrl,
			Healthy:    fleets[2*i],
			Faulted:    fleets[2*i+1],
		})
	}
	return out, nil
}

// downEpochs sums crashed node-epochs over the run.
func downEpochs(r cluster.ScenarioResult) int {
	var n int
	for _, ep := range r.Epochs {
		n += ep.Down
	}
	return n
}

// Table renders the crash-under-spike comparison — per controller, the
// healthy and faulted fleet power and worst tail, the crash exposure
// (down node-epochs, restarts) and the controller's decision churn.
func (r FaultsExpResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Crash under spike: oracle vs reactive on a faulted AW fleet (%d nodes, %d crash, consolidate)",
			r.Nodes, r.Crashed),
		Headers: []string{"Controller", "Healthy W", "Faulted W", "Healthy p99",
			"Faulted p99", "Down ep", "Restarts", "Changes H/F"},
	}
	for _, run := range r.Runs {
		t.AddRow(run.Controller,
			report.W(run.Healthy.AvgFleetPowerW), report.W(run.Faulted.AvgFleetPowerW),
			report.US(run.Healthy.WorstP99US), report.US(run.Faulted.WorstP99US),
			fmt.Sprintf("%d", downEpochs(run.Faulted)),
			fmt.Sprintf("%d", run.Faulted.Restarts),
			fmt.Sprintf("%d/%d", run.Healthy.ControllerChanges, run.Faulted.ControllerChanges))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d of %d nodes crash over the spike plateau (%.0f-%.0fms); survivors absorb the", r.Crashed, r.Nodes,
			float64(r.CrashStart)/1e6, float64(r.CrashEnd)/1e6),
		"re-partitioned load and restarted nodes rebuild cold, paying the restart penalty;",
		"down ep counts crashed node-epochs; changes count controller target moves (healthy/faulted)")
	return t
}
