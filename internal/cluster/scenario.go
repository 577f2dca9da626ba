package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// ScenarioConfig describes a time-varying fleet simulation: the schedule
// replaces the static RateQPS, and every Epoch the dispatcher
// re-partitions the window's mean rate across the nodes, so
// consolidation parks newly drained nodes as load falls and unparks
// them as it returns.
//
// Every node runs its entire rate timeline on one resumable
// server.Instance: a single warmup for the whole scenario,
// engine/C-state/RNG state carried across epoch boundaries, and
// park/unpark simulated as real drain/deep-idle/exit-latency
// transitions. Two engines step those timelines, picked by the input:
// an open-loop run hands each timeline class to the pipelined runner
// as one independent task, so scenario wall-clock is the slowest class,
// not the sum of per-epoch maxima; a run with a Controller steps the
// fleet epoch by epoch through Live.
type ScenarioConfig struct {
	// Nodes are the per-node server configurations (see Config.Nodes).
	// Each node's RatePerSec/Schedule/Duration are ignored (the epoch
	// plan supplies them) and Warmup is paid once per scenario.
	Nodes []server.Config
	// Schedule is the offered-load timeline partitioned across the fleet.
	Schedule *scenario.Schedule
	// Epoch is the re-dispatch interval (default: the whole schedule in
	// one epoch — the degenerate case that reproduces the static Run).
	Epoch sim.Time
	// Dispatch, TargetUtil and ParkDrained mirror Config.
	Dispatch    string
	TargetUtil  float64
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
	// ControllerSpec). The zero value keeps today's open-loop behavior:
	// the epoch plan is computed once from the schedule and every node
	// runs its precomputed timeline. A named controller routes the run
	// through the incremental closed-loop engine instead, where each
	// epoch's rate partition is decided at run time from the previous
	// epoch's telemetry (the oracle replays the precomputed plan and so
	// reproduces the open-loop results bit-for-bit).
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
	// The static validator covers nodes, policy name, TargetUtil and the
	// closed-loop rejection.
	if err := (Config{
		Nodes:      c.Nodes,
		RateQPS:    0,
		Dispatch:   r.Dispatch,
		TargetUtil: r.TargetUtil,
	}).Validate(); err != nil {
		return r, err
	}
	// Fault windows reference node indices, so they validate after the
	// static pass has established the fleet exists.
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

// epochWindow is one planned re-dispatch interval: its schedule window,
// mean rate, covering phase, and the per-node rate partition. The plan
// depends only on the schedule and the dispatch policy — never on
// simulation results — which is what lets the open-loop engine hand
// every node its entire timeline up front.
type epochWindow struct {
	start, end sim.Time
	rate       float64
	phase      string
	rates      []float64
	// Admission-control account for the window (see OverloadSpec): set
	// by applyOverloadPlan on planned windows and by the run-time
	// admission on realized ones; all zero when admission is disabled.
	saturated  bool
	shedded    float64 // requests dropped during the window
	backlogReq float64 // requests still queued at the window's end
}

// planEpochs partitions the schedule into epoch windows and each
// window's mean rate across the nodes.
func planEpochs(c resolvedScenario, part func(Config) []float64, total sim.Time) []epochWindow {
	var plan []epochWindow
	for e := 0; ; e++ {
		t0 := c.Epoch * sim.Time(e)
		if t0 >= total {
			return plan
		}
		t1 := t0 + c.Epoch
		if t1 > total {
			t1 = total
		}
		window := t1 - t0
		rate := c.Schedule.AvgRate(t0, t1)
		phase, _ := c.Schedule.PhaseAt(t0 + window/2)
		plan = append(plan, epochWindow{
			start: t0,
			end:   t1,
			rate:  rate,
			phase: phase.Name,
			rates: part(Config{
				Nodes:      c.Nodes,
				RateQPS:    rate,
				Dispatch:   c.Dispatch,
				TargetUtil: c.TargetUtil,
			}),
		})
	}
}

// fleetConfig is the static-equivalent Config an epoch's aggregation
// runs under.
func (c resolvedScenario) fleetConfig(rate float64) Config {
	return Config{
		Nodes:       c.Nodes,
		RateQPS:     rate,
		Dispatch:    c.Dispatch,
		TargetUtil:  c.TargetUtil,
		ParkDrained: c.ParkDrained,
	}
}

// scenarioPlan is a normalized scenario with its epoch plan built: the
// shared front half of RunScenario and NewLive, so both engines step
// the same plan.
type scenarioPlan struct {
	c      resolvedScenario
	part   func(Config) []float64
	r      *runner.Runner
	plan   []epochWindow
	faults [][]runner.Fault
}

// newScenarioPlan normalizes the config and partitions the schedule into
// the epoch plan, with crashed nodes' load re-partitioned over the
// survivors and admission control applied.
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
	plan := planEpochs(c, part, c.total)
	faults := c.faultPlan(plan)
	if faults != nil {
		// Crashed nodes serve nothing; re-partition their epochs' load
		// over the survivors before any timeline is built.
		applyFaultRates(c, part, plan, faults)
	}
	// Admission control clips the plan after the fault adjustment, so
	// capacity reflects crashed nodes. Controlled epochs re-admit at run
	// time against the controller's active set; the oracle replays these
	// planned accounts.
	applyOverloadPlan(c, part, plan, faults)
	return scenarioPlan{c: c, part: part, r: r, plan: plan, faults: faults}, nil
}

// newResult returns the result with its configuration echo filled in,
// ready for an engine to add the epochs.
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
// epoch-stepped re-dispatch: the schedule is partitioned into an epoch
// plan up front, every node runs its share, park/unpark bookkeeping is
// applied, and per-epoch, per-phase and whole-run views are aggregated.
// The input picks the engine: an open-loop run executes each timeline
// class as one pipelined task (runScenarioWarm); a run with a
// controller is stepped to completion through Live.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	p, err := newScenarioPlan(cfg)
	if err != nil {
		return ScenarioResult{}, err
	}
	if p.c.Controller.enabled() {
		l := newLive(p)
		for !l.Done() {
			if _, err := l.Step(); err != nil {
				return ScenarioResult{}, err
			}
		}
		out, err := l.Result()
		if err != nil {
			return ScenarioResult{}, err
		}
		// Noted here, once per run, not in Result: awserved calls Result
		// on every request.
		p.r.NoteClassDedup(len(p.c.Nodes), out.Classes, out.ReplicaRuns)
		return out, nil
	}
	out := p.c.newResult()
	if err := runScenarioWarm(p.c, p.plan, p.faults, p.r, &out); err != nil {
		return ScenarioResult{}, err
	}
	out.finish()
	return out, nil
}

// runScenarioWarm executes the epoch plan on resumable instances,
// class-collapsed: the fleet is first grouped into timeline equivalence
// classes (runner.TimelineKey — bit-identical simulations), then one
// representative timeline per class plus Replicas seeded replicas run
// as independent pipelined runner tasks, and a per-epoch pass expands
// the class measurements back into the fleet by multiplicity for
// park/unpark bookkeeping and aggregation. Collapse is exact by
// construction — members of a class are the *same* simulation — so a
// fleet of singleton classes (distinct seeds, or a deliberately
// heterogeneous fleet) reproduces the pre-collapse path bit-for-bit.
// Unpark costs are simulated — drained requests, deep-idle residency,
// real exit latencies — so no synthetic penalty is folded in and
// EpochResult.UnparkEnergyJ stays zero.
func runScenarioWarm(c resolvedScenario, plan []epochWindow, faults [][]runner.Fault, r *runner.Runner, out *ScenarioResult) error {
	classes := classifyTimelines(c, plan, faults)
	out.Classes = len(classes)
	out.ReplicaRuns = len(classes) * c.Replicas
	r.NoteClassDedup(len(c.Nodes), len(classes), out.ReplicaRuns)
	if err := runClasses(classes, c.Replicas, r); err != nil {
		return err
	}
	if c.CompactNodes {
		warmEpochsCompact(c, plan, classes, out)
	} else {
		warmEpochsExpanded(c, plan, classes, out)
	}
	out.CI = scenarioClassCI(classes, plan, c.Replicas)
	return nil
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

// warmEpochsExpanded materializes every node's NodeResult from its
// class representative — the full-detail default, bit-identical to the
// historical per-node path.
func warmEpochsExpanded(c resolvedScenario, plan []epochWindow, classes []timelineClass, out *ScenarioResult) {
	classOf := make([]int, len(c.Nodes))
	for ci := range classes {
		for _, i := range classes[ci].members {
			classOf[i] = ci
		}
	}
	parked := make([]bool, len(c.Nodes))
	for e, pw := range plan {
		ep := newEpochResult(e, pw)
		nodes := make([]NodeResult, len(c.Nodes))
		for i := range c.Nodes {
			iv := classes[classOf[i]].results[0][e]
			nodes[i] = NodeResult{Node: i, RateQPS: pw.rates[i], Parked: iv.Parked, Result: iv.Result}
			if iv.Parked {
				ep.Parked++
			}
			if iv.Down {
				ep.Down++
			}
			if iv.Restarted {
				ep.Restarted++
			}
			if parked[i] && pw.rates[i] > 0 {
				ep.Unparked++
			}
			parked[i] = iv.Parked
		}
		ep.Fleet = aggregate(c.fleetConfig(pw.rate), nodes)
		applyRestartPenalty(c, &ep, pw.end-pw.start)
		ep.CI = epochClassCI(classes, e, c.Replicas)
		out.Epochs = append(out.Epochs, ep)
		out.ParkedTimeline = append(out.ParkedTimeline, ep.Parked)
		out.Unparks += ep.Unparked
		out.Restarts += ep.Restarted
	}
}

// warmEpochsCompact skips per-node materialization entirely: park
// bookkeeping and fleet aggregation run class-weighted in O(classes)
// per epoch, and EpochResult.Fleet.Nodes stays nil. This is what makes
// a 100K-node fleet a few-classes problem instead of a 2.4M-NodeResult
// problem. Every class member shares its representative's rate and park
// state by construction (both are part of the class key), so the
// weighted counts are exact, not approximations.
func warmEpochsCompact(c resolvedScenario, plan []epochWindow, classes []timelineClass, out *ScenarioResult) {
	parked := make([]bool, len(classes))
	for e, pw := range plan {
		ep := newEpochResult(e, pw)
		reps := make([]NodeResult, len(classes))
		mults := make([]int, len(classes))
		for ci := range classes {
			cl := &classes[ci]
			iv := cl.results[0][e]
			m := len(cl.members)
			reps[ci] = NodeResult{Node: cl.rep, RateQPS: pw.rates[cl.rep], Parked: iv.Parked, Result: iv.Result}
			mults[ci] = m
			if iv.Parked {
				ep.Parked += m
			}
			if iv.Down {
				ep.Down += m
			}
			if iv.Restarted {
				ep.Restarted += m
			}
			if parked[ci] && pw.rates[cl.rep] > 0 {
				ep.Unparked += m
			}
			parked[ci] = iv.Parked
		}
		ep.Fleet = aggregateWeighted(c.fleetConfig(pw.rate), reps, mults)
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
