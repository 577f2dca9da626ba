package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// ScenarioConfig describes a fleet simulation: every Epoch the
// dispatcher partitions the schedule's mean rate over the window across
// the nodes, so consolidation parks newly drained nodes as load falls
// and unparks them as it returns. A static fleet at one rate is a
// constant schedule in one epoch.
//
// Every node runs its entire rate timeline on one resumable
// server.Instance: a single warmup for the whole scenario,
// engine/C-state/RNG state carried across epoch boundaries, and
// park/unpark simulated as real drain/deep-idle/exit-latency
// transitions. One engine steps those timelines: a Live advances the
// fleet epoch by epoch, one warm instance per timeline equivalence
// class.
type ScenarioConfig struct {
	// Nodes are the per-node server configurations. Each node's
	// RatePerSec/Schedule/Duration are ignored (the dispatcher and the
	// epoch plan supply them) and Warmup is paid once per scenario;
	// every other field (catalog, platform, core count, seed, ...) is
	// honored as given, so heterogeneous fleets mix freely.
	Nodes []server.Config
	// Schedule is the offered-load timeline partitioned across the fleet.
	Schedule *scenario.Schedule
	// Epoch is the re-dispatch interval (default: the whole schedule in
	// one epoch). One epoch over a constant schedule is a static fleet
	// run: each node's only interval is a standalone simulation at its
	// routed rate.
	Epoch sim.Time
	// Dispatch names the cluster-level load partitioning policy
	// (default spread; see Policies).
	Dispatch string
	// TargetUtil is the per-node utilization the consolidate policy
	// fills nodes to before spilling onto the next (default 0.6).
	TargetUtil float64
	// ParkDrained parks a node for every epoch the dispatcher routes it
	// no load: its instance drains, its cores drop to the deepest menu
	// state, OS housekeeping goes tickless and the package idle model
	// engages, so a drained node reaches package deep idle instead of
	// burning full uncore power on housekeeping wake-ups. Its first
	// loaded epoch unparks it and pays the real exit latency. Nodes that
	// receive load are never modified.
	ParkDrained bool
	// Replicas is the number of extra seeded replicas simulated per
	// timeline equivalence class (the K in "representative plus K
	// replicas"). Each replica re-runs its class representative's exact
	// timeline under a seed from the disjoint xrand.ClassReplicaSeed
	// plane — never colliding with node seeds — and EpochResult.CI /
	// ScenarioResult.CI then report 95% Student-t confidence intervals
	// over the K+1 samples. Point estimates always come from the
	// representatives alone, so setting Replicas adds error bars without
	// perturbing any existing result bit.
	Replicas int
	// Controller selects the fleet autoscaling policy (see
	// ControllerSpec). The zero value is open-loop: every epoch routes
	// its offered rate across the whole up fleet. With a named
	// controller each epoch's active set is decided from the previous
	// epoch's telemetry instead (the oracle makes no decision and routes
	// like the open-loop run, so it reproduces the open-loop results
	// bit-for-bit).
	Controller ControllerSpec
	// Faults injects node- and cluster-level faults into the run:
	// explicit per-node crash/straggler/thermal windows plus a seeded
	// correlated fault process (see FaultSpec). The zero value is a
	// healthy fleet and keeps every result bit-identical to a run that
	// predates fault injection.
	Faults FaultSpec
	// Overload enables per-epoch admission control: when the offered
	// rate exceeds the active fleet's capacity (per-node capacity at
	// MaxUtil, summed over the up, routed nodes), the excess is shed,
	// queued or admitted-and-recorded per the policy (see OverloadSpec).
	// The zero value disables admission control and keeps every result
	// bit-identical to a run that predates it.
	Overload OverloadSpec
	// CompactNodes skips per-node materialization: EpochResult.Fleet.Nodes
	// stays nil and fleet aggregation runs class-weighted in O(classes)
	// per epoch instead of O(nodes) — the mode that keeps a 100K-node
	// fleet's memory and aggregation cost proportional to its handful of
	// equivalence classes. All fleet-level aggregates are computed from
	// the same per-class measurements either way.
	CompactNodes bool
	// Runner executes the node simulations (default runner.Default()).
	Runner *runner.Runner
}

// resolvedScenario is ScenarioConfig with every defaultable knob
// resolved to its effective value — the zero-value-vs-default ambiguity
// ends here, before any simulation runs. Normalize is the only
// constructor.
type resolvedScenario struct {
	ScenarioConfig
	restartLatency sim.Time
	restartPowerW  float64
	total          sim.Time
}

// Normalize validates the configuration and resolves every defaultable
// knob to its effective value, in one pass: dispatch policy, target
// utilization, the epoch length (whole schedule when unset or
// over-long), the crash restart penalty (RestartFree collapsing both
// knobs to zero), and the controller's tuning defaults. It is the
// single path behind RunScenario, Validate and the CLIs, so every
// caller gets identical errors for identical mistakes.
func (c ScenarioConfig) Normalize() (resolvedScenario, error) {
	r := resolvedScenario{ScenarioConfig: c}
	if c.Schedule == nil {
		return r, fmt.Errorf("cluster: scenario needs a schedule")
	}
	if c.Epoch < 0 {
		return r, fmt.Errorf("cluster: negative epoch %d", c.Epoch)
	}
	if c.Replicas < 0 {
		return r, fmt.Errorf("cluster: negative replicas %d", c.Replicas)
	}
	if c.Replicas >= xrand.MaxReplicas {
		return r, fmt.Errorf("cluster: replicas %d exceed the seed plane's %d sub-blocks per class",
			c.Replicas, xrand.MaxReplicas)
	}
	if c.Faults.RestartLatency < 0 || c.Faults.RestartPowerW < 0 {
		return r, fmt.Errorf("cluster: negative restart penalty")
	}
	if c.Dispatch == "" {
		r.Dispatch = DispatchSpread
	}
	if c.TargetUtil == 0 {
		r.TargetUtil = defaultTargetUtil
	}
	r.restartLatency = c.Faults.RestartLatency
	r.restartPowerW = c.Faults.RestartPowerW
	if c.Faults.RestartFree {
		r.restartLatency, r.restartPowerW = 0, 0
	} else {
		if r.restartLatency == 0 {
			r.restartLatency = 10 * sim.Millisecond
		}
		if r.restartPowerW == 0 {
			r.restartPowerW = 35
		}
	}
	r.total = c.Schedule.Duration()
	if r.Epoch == 0 || r.Epoch > r.total {
		r.Epoch = r.total
	}
	var err error
	if r.Controller, err = normalizeController(c.Controller, r.TargetUtil); err != nil {
		return r, err
	}
	if r.Overload, err = normalizeOverload(c.Overload); err != nil {
		return r, err
	}
	if len(c.Nodes) == 0 {
		return r, fmt.Errorf("cluster: no nodes")
	}
	if r.TargetUtil < 0 || r.TargetUtil > 1 {
		return r, fmt.Errorf("cluster: TargetUtil %v out of (0,1]", r.TargetUtil)
	}
	if _, err := partitioner(r.Dispatch); err != nil {
		return r, err
	}
	for i := range c.Nodes {
		if n := &c.Nodes[i]; n.LoadGen == server.LoadClosedLoop || n.ClosedLoopConnections > 0 {
			return r, fmt.Errorf("cluster: node %d uses closed-loop load; the cluster dispatcher partitions open-loop rates", i)
		}
	}
	// Fault windows reference node indices, so they validate after the
	// fleet is known to exist.
	if err := c.Faults.validate(len(c.Nodes)); err != nil {
		return r, err
	}
	return r, nil
}

// EpochResult is one re-dispatch interval's fleet measurement.
type EpochResult struct {
	// Epoch indexes the interval; [Start, End) is its schedule window.
	Epoch int
	Start sim.Time
	End   sim.Time
	// Phase names the schedule phase covering the window's midpoint.
	Phase string
	// RateQPS is the schedule's mean offered rate over the window — what
	// the dispatcher partitioned.
	RateQPS float64
	// Parked counts nodes actually parked this epoch (zero load under
	// ParkDrained) — distinct from Fleet.IdleNodes, which counts merely
	// drained nodes whether or not parking is enabled.
	Parked int
	// Unparked counts nodes that were parked last epoch and received
	// load this epoch. UnparkEnergyJ is always zero: the unpark is
	// simulated (drain, deep-idle residency, real exit latency on the
	// first post-unpark arrival), so its cost is in the measured node
	// results. The field is kept only because the benchmark's pinned
	// result digests hash the ScenarioResult JSON, which includes it;
	// dropping it means re-pinning those digests.
	Unparked      int
	UnparkEnergyJ float64
	// Down counts nodes crashed (dark) for this epoch: nothing was
	// simulated for them and they served no load. Restarted counts nodes
	// rebuilt cold at the start of this epoch after a crash, and
	// RestartEnergyJ is the synthetic restart penalty energy they burned
	// (already folded into Fleet.FleetPowerW/FleetEnergyJ, with the
	// restart latency flooring the epoch's worst p99).
	Down           int
	Restarted      int
	RestartEnergyJ float64
	// TargetNodes is the controller's target active node count for this
	// epoch (the clamped Observe decision; for the oracle, the number of
	// plan-routed nodes). Zero on open-loop runs.
	TargetNodes int
	// Saturated reports that the epoch's demand (offered rate plus any
	// queued backlog) exceeded the active fleet's admission capacity —
	// only ever set when ScenarioConfig.Overload selects a policy.
	// SheddedRequests counts the requests dropped during the window
	// (shed policy, or queue-policy backlog overflow), and BacklogRate
	// is the demand still queued at the window's end expressed as a
	// rate over the window (queue policy).
	Saturated       bool
	SheddedRequests float64
	BacklogRate     float64
	// Fleet is the full fleet aggregate for this window. With
	// CompactNodes its Nodes field stays nil.
	Fleet Result
	// CI holds the epoch's replica-ensemble 95% confidence intervals
	// when ScenarioConfig.Replicas > 0, nil otherwise.
	CI *FleetCI
}

// PhaseSummary aggregates the epochs that fell in one schedule phase.
type PhaseSummary struct {
	// Phase is the schedule phase name; Epochs counts its epochs.
	Phase  string
	Epochs int
	// Time is the total simulated time attributed to the phase.
	Time sim.Time
	// AvgRateQPS is the time-weighted mean offered rate.
	AvgRateQPS float64
	// AvgFleetPowerW is the time-weighted mean fleet power.
	AvgFleetPowerW float64
	// QPSPerWatt is completions per joule over the phase.
	QPSPerWatt float64
	// WorstP99US is the worst per-node server p99 across the phase.
	WorstP99US float64
	// AvgParkedNodes is the time-weighted mean parked-node count.
	AvgParkedNodes float64
}

// ScenarioResult is the full time-varying fleet measurement: per-epoch
// detail, per-phase aggregation, and whole-run totals.
type ScenarioResult struct {
	// Schedule and Dispatch echo the configuration.
	Schedule string
	Dispatch string
	// Epoch is the re-dispatch interval; TotalTime the schedule length.
	Epoch     sim.Time
	TotalTime sim.Time

	// Epochs holds every interval in time order.
	Epochs []EpochResult
	// Phases aggregates epochs by schedule phase, in first-seen order.
	Phases []PhaseSummary

	// FleetEnergyJ is total fleet energy including restart penalties.
	FleetEnergyJ float64
	// AvgFleetPowerW is the time-weighted mean fleet power.
	AvgFleetPowerW float64
	// CompletedPerSec is the time-weighted mean fleet throughput.
	CompletedPerSec float64
	// QPSPerWatt is completions per joule over the whole scenario.
	QPSPerWatt float64
	// WorstP99US is the worst per-node server p99 over any epoch.
	WorstP99US float64
	// Unparks counts park->active transitions over the run.
	Unparks int
	// Restarts counts cold rebuilds after crashes over the run.
	Restarts int
	// ParkedTimeline is the parked-node count per epoch — the
	// consolidation footprint over the day.
	ParkedTimeline []int

	// Controller names the fleet controller that drove the run; empty on
	// open-loop runs. ControllerChanges counts the epochs whose target
	// active node count differed from the previous epoch's — the
	// decision churn awsweep -v reports alongside dedup stats.
	Controller        string
	ControllerChanges int

	// Overload names the admission policy that governed the run; empty
	// when admission control was disabled. SaturatedEpochs counts the
	// epochs whose demand exceeded the admission capacity,
	// SheddedRequests totals the requests dropped over the run, and
	// BacklogRate is the demand still queued after the final epoch
	// (queue policy), as a rate over that epoch.
	Overload        string
	SaturatedEpochs int
	SheddedRequests float64
	BacklogRate     float64

	// Classes counts the timeline equivalence classes the run
	// collapsed the fleet into (one per node when nothing collapses).
	Classes int
	// ReplicaRuns counts the extra seeded replica timelines executed
	// (Classes x Replicas).
	ReplicaRuns int
	// CI holds the whole-run replica-ensemble 95% confidence intervals
	// when Replicas > 0, nil otherwise.
	CI *FleetCI
}

// Validate rejects unusable scenario configurations. It is a thin
// wrapper over Normalize — validation and defaulting are one pass, so a
// config rejected here is rejected identically by RunScenario.
func (c ScenarioConfig) Validate() error {
	_, err := c.Normalize()
	return err
}

// epochWindow is one re-dispatch interval: its schedule window, mean
// offered rate and covering phase. The plan depends only on the
// schedule — never on simulation results; each epoch's per-node routing
// is decided when the epoch is stepped.
type epochWindow struct {
	start, end sim.Time
	rate       float64
	phase      string
	// overloadAccount is the window's admission outcome (see
	// OverloadSpec), set when the epoch is stepped; all zero when
	// admission is disabled.
	overloadAccount
}

// planEpochs cuts the schedule into epoch windows, each with its mean
// rate and phase.
func planEpochs(c resolvedScenario) []epochWindow {
	var plan []epochWindow
	for e := 0; ; e++ {
		t0 := c.Epoch * sim.Time(e)
		if t0 >= c.total {
			return plan
		}
		t1 := t0 + c.Epoch
		if t1 > c.total {
			t1 = c.total
		}
		phase, _ := c.Schedule.PhaseAt(t0 + (t1-t0)/2)
		plan = append(plan, epochWindow{
			start: t0,
			end:   t1,
			rate:  c.Schedule.AvgRate(t0, t1),
			phase: phase.Name,
		})
	}
}

// scenarioPlan is a normalized scenario with its epoch windows, fault
// rows and dispatch policy resolved: the immutable front half of a Live,
// shared by its forks.
type scenarioPlan struct {
	c      resolvedScenario
	part   partitionFunc
	r      *runner.Runner
	plan   []epochWindow
	faults [][]runner.Fault
	// all is the identity active set 0..n-1: an epoch without a fault
	// row routes over a prefix of it.
	all []int
}

// newScenarioPlan normalizes the config and cuts the schedule into
// epoch windows and their fault rows.
func newScenarioPlan(cfg ScenarioConfig) (scenarioPlan, error) {
	c, err := cfg.Normalize()
	if err != nil {
		return scenarioPlan{}, err
	}
	part, err := partitioner(c.Dispatch)
	if err != nil {
		return scenarioPlan{}, err
	}
	r := c.Runner
	if r == nil {
		r = runner.Default()
	}
	plan := planEpochs(c)
	all := make([]int, len(c.Nodes))
	for i := range all {
		all[i] = i
	}
	return scenarioPlan{c: c, part: part, r: r, plan: plan, faults: c.faultPlan(plan), all: all}, nil
}

// newResult returns the result with its configuration echo filled in,
// ready for Live.Result to add the epochs.
func (c resolvedScenario) newResult() ScenarioResult {
	return ScenarioResult{
		Schedule:  c.Schedule.Name(),
		Dispatch:  c.Dispatch,
		Epoch:     c.Epoch,
		TotalTime: c.total,
		Overload:  c.Overload.Policy,
	}
}

// RunScenario simulates the fleet under the time-varying schedule with
// epoch-stepped re-dispatch: a Live is stepped to the end of the
// schedule and packaged by Live.Result. Every epoch routes its load when
// it is stepped: open-loop and oracle runs across the whole up fleet, a
// run with a controller across the active set it decides from the
// previous epoch's telemetry.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	l, err := NewLive(cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	for !l.Done() {
		if _, err := l.Step(); err != nil {
			return ScenarioResult{}, err
		}
	}
	out, err := l.Result()
	if err != nil {
		return ScenarioResult{}, err
	}
	// Noted here, once per run, not in Result: awserved calls Result on
	// every request.
	l.r.NoteClassDedup(len(l.c.Nodes), out.Classes, out.ReplicaRuns)
	return out, nil
}

// newEpochResult seeds an epoch's result from its window, carrying the
// window's admission account (all zero when overload control is off).
func newEpochResult(e int, pw epochWindow) EpochResult {
	ep := EpochResult{
		Epoch: e, Start: pw.start, End: pw.end, Phase: pw.phase, RateQPS: pw.rate,
		Saturated: pw.saturated, SheddedRequests: pw.shedded,
	}
	if pw.backlogReq > 0 {
		ep.BacklogRate = pw.backlogReq / (float64(pw.end-pw.start) / 1e9)
	}
	return ep
}

// foldEpochs aggregates each epoch of the realized plan from the class
// measurements and appends it to out with its park, unpark, crash and
// restart bookkeeping. Every member of a class shares its
// representative's rate and park state in every epoch (both are part
// of what makes a class), so each node's rate is read from its class's
// measurement and the counts are taken per class, weighted by class size,
// and are exact. The aggregation runs either over every
// node in fleet order, each carrying its class's measurement (the
// full-detail default), or with CompactNodes over one weighted entry
// per class, in O(classes) per epoch with EpochResult.Fleet.Nodes left
// nil — what makes a 100K-node fleet a few-classes problem.
func foldEpochs(c resolvedScenario, plan []epochWindow, classes []timelineClass, out *ScenarioResult) {
	parked := make([]bool, len(classes))
	var mults []int
	if c.CompactNodes {
		mults = make([]int, len(classes))
		for ci := range classes {
			mults[ci] = len(classes[ci].members)
		}
	}
	for e, pw := range plan {
		ep := newEpochResult(e, pw)
		var nodes []NodeResult
		if c.CompactNodes {
			nodes = make([]NodeResult, len(classes))
		} else {
			nodes = make([]NodeResult, len(c.Nodes))
		}
		for ci := range classes {
			cl := &classes[ci]
			iv := cl.results[0][e]
			rate := iv.RateQPS
			m := len(cl.members)
			if c.CompactNodes {
				nodes[ci] = NodeResult{Node: cl.rep, RateQPS: rate, Parked: iv.Parked, Result: iv.Result}
			} else {
				for _, i := range cl.members {
					nodes[i] = NodeResult{Node: i, RateQPS: rate, Parked: iv.Parked, Result: iv.Result}
				}
			}
			if iv.Parked {
				ep.Parked += m
			}
			if iv.Down {
				ep.Down += m
			}
			if iv.Restarted {
				ep.Restarted += m
			}
			if parked[ci] && rate > 0 {
				ep.Unparked += m
			}
			parked[ci] = iv.Parked
		}
		ep.Fleet = aggregateWeighted(c.Dispatch, pw.rate, nodes, mults)
		applyRestartPenalty(c, &ep, pw.end-pw.start)
		ep.CI = epochClassCI(classes, e, c.Replicas)
		out.Epochs = append(out.Epochs, ep)
		out.ParkedTimeline = append(out.ParkedTimeline, ep.Parked)
		out.Unparks += ep.Unparked
		out.Restarts += ep.Restarted
	}
}

// finish derives the per-phase and whole-run aggregates from the epochs.
func (r *ScenarioResult) finish() {
	type phaseAcc struct {
		rateSec     float64 // rate * seconds
		energyJ     float64
		completions float64
		parkedSec   float64
	}
	var totalSec, energy, completions float64
	phaseIdx := map[string]int{}
	var accs []phaseAcc
	for ei := range r.Epochs {
		ep := &r.Epochs[ei]
		winSec := float64(ep.End-ep.Start) / 1e9
		totalSec += winSec
		energy += ep.Fleet.FleetPowerW * winSec
		completions += ep.Fleet.CompletedPerSec * winSec
		if ep.Fleet.WorstP99US > r.WorstP99US {
			r.WorstP99US = ep.Fleet.WorstP99US
		}
		if ep.Saturated {
			r.SaturatedEpochs++
		}
		r.SheddedRequests += ep.SheddedRequests

		pi, ok := phaseIdx[ep.Phase]
		if !ok {
			pi = len(r.Phases)
			phaseIdx[ep.Phase] = pi
			r.Phases = append(r.Phases, PhaseSummary{Phase: ep.Phase})
			accs = append(accs, phaseAcc{})
		}
		p, a := &r.Phases[pi], &accs[pi]
		p.Epochs++
		p.Time += ep.End - ep.Start
		a.rateSec += ep.RateQPS * winSec
		a.energyJ += ep.Fleet.FleetPowerW * winSec
		a.completions += ep.Fleet.CompletedPerSec * winSec
		a.parkedSec += float64(ep.Parked) * winSec
		if ep.Fleet.WorstP99US > p.WorstP99US {
			p.WorstP99US = ep.Fleet.WorstP99US
		}
	}
	for i := range r.Phases {
		p, a := &r.Phases[i], &accs[i]
		sec := float64(p.Time) / 1e9
		if sec <= 0 {
			continue
		}
		p.AvgRateQPS = a.rateSec / sec
		p.AvgFleetPowerW = a.energyJ / sec
		p.AvgParkedNodes = a.parkedSec / sec
		if a.energyJ > 0 {
			p.QPSPerWatt = a.completions / a.energyJ
		}
	}
	if totalSec > 0 {
		r.FleetEnergyJ = energy
		r.AvgFleetPowerW = energy / totalSec
		r.CompletedPerSec = completions / totalSec
	}
	if energy > 0 {
		r.QPSPerWatt = completions / energy
	}
	if len(r.Epochs) > 0 {
		r.BacklogRate = r.Epochs[len(r.Epochs)-1].BacklogRate
	}
}
