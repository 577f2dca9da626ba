package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/datacenter"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scenarioBaseQPSPerNode is the per-node base rate the named scenarios
// swing around (multiplied by the fleet size). At 800K QPS per 20-core
// node the diurnal day spans the whole interesting band: the trough
// (0.4x, ~14% utilization) is deep in the idle-dominated regime where
// AW earns its keep, the peak (1.6x, ~57%) is busy enough that idle
// states barely matter, and under consolidate the peak overflows the
// fill level so the day parks nodes at night and unparks them by noon.
const scenarioBaseQPSPerNode = 800e3

// ctrlScenarioQPSPerNode is the quieter base the controller comparison
// runs at. At 800K/node the consolidate fill level pins every active
// node's utilization inside the reactive deadband (measured C0
// residency ~0.40-0.47), so the feedback controller would never move
// and the study would measure nothing. At 100K/node the steady state
// consolidates the whole fleet onto one node at ~0.2 utilization —
// clearly below the deadband floor — so the reactive controller really
// parks the fleet down, and the 4x spike then lands on the shrunken
// active set a full epoch before it can react: the lag the study
// exists to price.
const ctrlScenarioQPSPerNode = 100e3

// ScenarioExpResult compares a Baseline fleet against an AW fleet over
// one time-varying load scenario, epoch by epoch. It answers the
// question the stationary sweeps cannot: how do the savings move as the
// fleet's utilization moves through the day — is AW a trough
// optimization, a peak optimization, or both?
type ScenarioExpResult struct {
	// Name is the scenario shape; Nodes the fleet size.
	Name  string
	Nodes int
	// Epoch is the re-dispatch interval; Total the scenario length.
	Epoch sim.Time
	Total sim.Time
	// Dispatch is the cluster policy both fleets ran under.
	Dispatch string
	// Baseline and AW are the two fleets' scenario measurements, epoch
	// windows aligned.
	Baseline cluster.ScenarioResult
	AW       cluster.ScenarioResult
}

// Scenario runs the named time-varying scenario (default diurnal) on a
// Baseline fleet and an AW fleet under the same schedule and epoch, so
// every table row is a like-for-like comparison of the same load window.
func Scenario(o Options) (ScenarioExpResult, error) {
	o = o.normalize()
	name := o.Scenario
	if name == "" {
		name = scenario.NameDiurnal
	}
	total := o.Duration
	epoch := o.Epoch
	if epoch == 0 {
		// Default: one epoch per diurnal segment (total/12) — fine
		// enough to follow the day, coarse enough to stay cheap.
		epoch = total / 12
	}
	sched, err := scenario.ByName(name, scenarioBaseQPSPerNode*float64(o.Nodes), total)
	if err != nil {
		return ScenarioExpResult{}, err
	}
	// Default spread: every node rides the full utilization swing, which
	// is where the trough-vs-peak AW savings contrast lives (consolidate
	// pins active nodes near TargetUtil and flattens it — run with
	// -cluster-dispatch consolidate to study the parking timeline
	// instead).
	dispatch := o.ClusterDispatch
	if dispatch == "" {
		dispatch = cluster.DispatchSpread
	}
	out := ScenarioExpResult{
		Name:     name,
		Nodes:    o.Nodes,
		Epoch:    epoch,
		Total:    total,
		Dispatch: dispatch,
	}
	profile := workload.Memcached()
	fleet := func(platform governor.Config) (cluster.ScenarioResult, error) {
		node := server.Config{
			Platform: platform,
			Profile:  profile,
			Warmup:   o.Warmup,
			Seed:     o.Seed,
			Dispatch: o.Dispatch,
			LoadGen:  o.LoadGen,
		}
		nodes := cluster.Homogeneous(o.Nodes, node)
		if o.Replicas > 0 {
			// Replicated mode trades per-node seed independence for
			// class collapse: every node shares the template seed, the
			// fleet folds into one class per timeline, and the replicas
			// supply the variance the shared seed gave up.
			for i := range nodes {
				nodes[i].Seed = node.Seed
			}
		}
		res, err := cluster.RunScenario(cluster.ScenarioConfig{
			Nodes:        nodes,
			Schedule:     sched,
			Epoch:        epoch,
			Dispatch:     dispatch,
			ParkDrained:  dispatch == cluster.DispatchConsolidate,
			Replicas:     o.Replicas,
			CompactNodes: o.Replicas > 0,
			Controller:   o.controllerSpec(o.Controller),
			Overload:     o.overloadSpec(o.OverloadPolicy),
		})
		if err != nil {
			return cluster.ScenarioResult{}, fmt.Errorf("experiments: scenario %s/%s: %w",
				name, platform.Name, err)
		}
		return res, nil
	}
	if out.Baseline, err = fleet(governor.Baseline); err != nil {
		return out, err
	}
	if out.AW, err = fleet(governor.AW); err != nil {
		return out, err
	}
	return out, nil
}

// PhaseTable renders the per-phase Baseline-vs-AW comparison — the
// trough-versus-peak savings answer.
func (r ScenarioExpResult) PhaseTable() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Scenario %q: Baseline vs AW per phase (%d nodes, %s, Memcached)",
			r.Name, r.Nodes, r.Dispatch),
		Headers: []string{"Phase", "Rate (KQPS)", "Base W", "AW W", "Save W", "Save %",
			"Base p99", "AW p99", "Parked B/A"},
	}
	for i, b := range r.Baseline.Phases {
		if i >= len(r.AW.Phases) {
			break
		}
		a := r.AW.Phases[i]
		save := b.AvgFleetPowerW - a.AvgFleetPowerW
		pct := 0.0
		if b.AvgFleetPowerW > 0 {
			pct = save / b.AvgFleetPowerW
		}
		t.AddRow(b.Phase, fmt.Sprintf("%.0f", b.AvgRateQPS/1000),
			report.W(b.AvgFleetPowerW), report.W(a.AvgFleetPowerW),
			report.W(save), report.Pct(pct),
			report.US(b.WorstP99US), report.US(a.WorstP99US),
			fmt.Sprintf("%.1f/%.1f", b.AvgParkedNodes, a.AvgParkedNodes))
	}
	bt, at := r.Baseline, r.AW
	save := bt.AvgFleetPowerW - at.AvgFleetPowerW
	pct := 0.0
	if bt.AvgFleetPowerW > 0 {
		pct = save / bt.AvgFleetPowerW
	}
	t.AddRow("TOTAL", fmt.Sprintf("%.0f", avgRateOf(bt)/1000),
		report.W(bt.AvgFleetPowerW), report.W(at.AvgFleetPowerW),
		report.W(save), report.Pct(pct),
		report.US(bt.WorstP99US), report.US(at.WorstP99US),
		fmt.Sprintf("%d/%d", bt.Unparks, at.Unparks))
	t.Notes = append(t.Notes,
		"both fleets see the identical phase schedule; epochs re-partition the",
		"load every "+fmt.Sprintf("%.0fms", float64(r.Epoch)/1e6)+" (TOTAL row: parked column shows unpark transitions)")
	if bt.CI != nil && at.CI != nil {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"replica-ensemble 95%% CI (n=%d): Base W [%.1f, %.1f], AW W [%.1f, %.1f]",
			bt.CI.Samples, bt.CI.FleetPowerW.Lo, bt.CI.FleetPowerW.Hi,
			at.CI.FleetPowerW.Lo, at.CI.FleetPowerW.Hi))
	}
	return t
}

// EpochTable renders the epoch timeline — the raw re-dispatch trace.
func (r ScenarioExpResult) EpochTable() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Scenario %q: epoch timeline (%d nodes, %s)",
			r.Name, r.Nodes, r.Dispatch),
		Headers: []string{"Epoch", "Window (ms)", "Phase", "Rate (KQPS)",
			"Base W", "AW W", "Base QPS/W", "AW QPS/W", "Parked B/A", "Unparks B/A"},
	}
	for i, b := range r.Baseline.Epochs {
		if i >= len(r.AW.Epochs) {
			break
		}
		a := r.AW.Epochs[i]
		t.AddRow(fmt.Sprintf("%d", b.Epoch),
			fmt.Sprintf("%.0f-%.0f", float64(b.Start)/1e6, float64(b.End)/1e6),
			b.Phase, fmt.Sprintf("%.0f", b.RateQPS/1000),
			report.W(b.Fleet.FleetPowerW), report.W(a.Fleet.FleetPowerW),
			fmt.Sprintf("%.0f", b.Fleet.QPSPerWatt), fmt.Sprintf("%.0f", a.Fleet.QPSPerWatt),
			fmt.Sprintf("%d/%d", b.Parked, a.Parked),
			fmt.Sprintf("%d/%d", b.Unparked, a.Unparked))
	}
	t.Notes = append(t.Notes,
		"parked counts are nodes the dispatcher drained into package deep idle;",
		"unparks are park->active transitions paying the unpark latency/power penalty")
	return t
}

// controllerSpec assembles the cluster controller spec the options
// describe; the empty name yields the zero spec, i.e. open-loop.
func (o Options) controllerSpec(name string) cluster.ControllerSpec {
	if name == "" {
		return cluster.ControllerSpec{}
	}
	return cluster.ControllerSpec{
		Name:     name,
		UpUtil:   o.ControllerUpUtil,
		DownUtil: o.ControllerDownUtil,
		Cooldown: o.ControllerCooldown,
	}
}

// overloadSpec assembles the admission-control spec for the named
// policy; the empty name yields the zero spec, i.e. no admission.
func (o Options) overloadSpec(policy string) cluster.OverloadSpec {
	if policy == "" {
		return cluster.OverloadSpec{}
	}
	return cluster.OverloadSpec{
		Policy:        policy,
		MaxUtil:       o.OverloadMaxUtil,
		MaxBacklogSec: o.OverloadBacklogSec,
	}
}

// ControllerScenarioRun is one (schedule, controller) cell of the
// controller comparison: a Baseline fleet and an AW fleet driven by the
// same closed-loop controller over the same schedule, plus the yearly
// cost implication of the measured power delta.
type ControllerScenarioRun struct {
	// Schedule is the load shape; Controller the fleet controller name.
	Schedule   string
	Controller string
	// Baseline and AW are the two fleets' controlled scenario runs,
	// epoch windows aligned.
	Baseline cluster.ScenarioResult
	AW       cluster.ScenarioResult
	// SavingsPerYearM is the AW-vs-Baseline fleet power delta priced
	// through the datacenter cost model, in $M per year. SavingsLoM and
	// SavingsHiM bound it with the replica ensembles' 95% power CIs
	// (conservative interval difference).
	SavingsPerYearM float64
	SavingsLoM      float64
	SavingsHiM      float64
}

// ScenarioControllerResult is the closed-loop control-plane study: every
// fleet controller (oracle, reactive, predictive) over a diurnal day and
// a load spike, each as a Baseline-vs-AW pair with replica CIs. It
// answers what the open-loop scenario tables cannot: how much of the
// oracle's savings a feedback controller keeps, and what the reactive
// controller's one-epoch reaction lag costs in tail latency when the
// spike lands on a parked-down fleet.
type ScenarioControllerResult struct {
	// Nodes is the fleet size; Epoch the re-dispatch interval; Total the
	// schedule length; Replicas the per-class replica count behind the
	// CIs.
	Nodes    int
	Epoch    sim.Time
	Total    sim.Time
	Replicas int
	// Runs holds one entry per (schedule, controller), schedules outer.
	Runs []ControllerScenarioRun
}

// ScenarioControllers runs the controller comparison: for each schedule
// (diurnal, then spike) and each fleet controller, a Baseline and an AW
// fleet run closed-loop under consolidate+park — the regime where the
// controller's target actually parks and wakes machines. Fleets share
// node seeds and carry seeded replicas so every power number has a 95%
// CI, and the savings column prices the measured fleet delta through the
// datacenter cost model.
func ScenarioControllers(o Options) (ScenarioControllerResult, error) {
	o = o.normalize()
	total := o.Duration
	epoch := o.Epoch
	if epoch == 0 {
		epoch = total / 12
	}
	replicas := o.Replicas
	if replicas == 0 {
		replicas = 2
	}
	out := ScenarioControllerResult{
		Nodes:    o.Nodes,
		Epoch:    epoch,
		Total:    total,
		Replicas: replicas,
	}
	profile := workload.Memcached()
	model := datacenter.NewCostModel()
	fleet := func(platform governor.Config, sched *scenario.Schedule, ctrl string) (cluster.ScenarioResult, error) {
		node := server.Config{
			Platform: platform,
			Profile:  profile,
			Warmup:   o.Warmup,
			Seed:     o.Seed,
			Dispatch: o.Dispatch,
			LoadGen:  o.LoadGen,
		}
		nodes := cluster.Homogeneous(o.Nodes, node)
		// Shared seeds collapse identical timelines into one class; the
		// replicas supply the variance the shared seed gave up.
		for i := range nodes {
			nodes[i].Seed = node.Seed
		}
		res, err := cluster.RunScenario(cluster.ScenarioConfig{
			Nodes:        nodes,
			Schedule:     sched,
			Epoch:        epoch,
			Dispatch:     cluster.DispatchConsolidate,
			ParkDrained:  true,
			Replicas:     replicas,
			CompactNodes: true,
			Controller:   o.controllerSpec(ctrl),
			Overload:     o.overloadSpec(o.OverloadPolicy),
		})
		if err != nil {
			return cluster.ScenarioResult{}, fmt.Errorf("experiments: controller %s/%s: %w",
				ctrl, platform.Name, err)
		}
		return res, nil
	}
	for _, name := range []string{scenario.NameDiurnal, scenario.NameSpike} {
		sched, err := scenario.ByName(name, ctrlScenarioQPSPerNode*float64(o.Nodes), total)
		if err != nil {
			return out, err
		}
		for _, ctrl := range cluster.Controllers() {
			run := ControllerScenarioRun{Schedule: name, Controller: ctrl}
			if run.Baseline, err = fleet(governor.Baseline, sched, ctrl); err != nil {
				return out, err
			}
			if run.AW, err = fleet(governor.AW, sched, ctrl); err != nil {
				return out, err
			}
			delta := run.Baseline.AvgFleetPowerW - run.AW.AvgFleetPowerW
			if run.SavingsPerYearM, err = model.YearlySavingsMeasuredFleetM(delta, o.Nodes); err != nil {
				return out, err
			}
			if bci, aci := run.Baseline.CI, run.AW.CI; bci != nil && aci != nil {
				// Conservative interval difference: the delta's bounds pair
				// each fleet's CI endpoints worst-case.
				if run.SavingsLoM, err = model.YearlySavingsMeasuredFleetM(
					bci.FleetPowerW.Lo-aci.FleetPowerW.Hi, o.Nodes); err != nil {
					return out, err
				}
				if run.SavingsHiM, err = model.YearlySavingsMeasuredFleetM(
					bci.FleetPowerW.Hi-aci.FleetPowerW.Lo, o.Nodes); err != nil {
					return out, err
				}
			}
			out.Runs = append(out.Runs, run)
		}
	}
	return out, nil
}

// ControllerTable renders the controller comparison — per (schedule,
// controller) the AW fleet's yearly savings with replica CIs, the AW
// tail, and the controller's decision churn. The spike rows carry the
// headline: reactive parks the quiet fleet down, the spike lands a full
// epoch before it can react, and its AW p99 degrades versus the oracle.
func (r ScenarioControllerResult) ControllerTable() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Closed-loop fleet control: oracle vs reactive vs predictive (%d nodes, consolidate, Memcached)",
			r.Nodes),
		Headers: []string{"Schedule", "Controller", "Base W", "AW W", "Save $M/yr [95% CI]",
			"AW p99", "AW p99 95% CI", "Changes B/A"},
	}
	for _, run := range r.Runs {
		ci := "n/a"
		if run.AW.CI != nil {
			ci = fmt.Sprintf("[%.1f, %.1f]", run.AW.CI.WorstP99US.Lo, run.AW.CI.WorstP99US.Hi)
		}
		t.AddRow(run.Schedule, run.Controller,
			report.W(run.Baseline.AvgFleetPowerW), report.W(run.AW.AvgFleetPowerW),
			fmt.Sprintf("%.2f [%.2f, %.2f]", run.SavingsPerYearM, run.SavingsLoM, run.SavingsHiM),
			report.US(run.AW.WorstP99US), ci,
			fmt.Sprintf("%d/%d", run.Baseline.ControllerChanges, run.AW.ControllerChanges))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("each row: Baseline and AW fleets closed-loop under the named controller; epochs every %.0fms,", float64(r.Epoch)/1e6),
		fmt.Sprintf("%d seeded replicas per timeline class behind the CIs; savings price the measured fleet", r.Replicas),
		"power delta through the datacenter cost model ($M/yr); changes count target moves;",
		"on the spike schedule the reactive rows pay the one-epoch unpark lag in AW p99 vs the oracle")
	return t
}

// avgRateOf recovers the scenario's time-weighted mean offered rate.
func avgRateOf(r cluster.ScenarioResult) float64 {
	var rateSec, sec float64
	for _, ep := range r.Epochs {
		w := float64(ep.End-ep.Start) / 1e9
		rateSec += ep.RateQPS * w
		sec += w
	}
	if sec <= 0 {
		return 0
	}
	return rateSec / sec
}
