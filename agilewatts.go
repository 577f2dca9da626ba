// Package agilewatts is the public API of this reproduction of
// "AgileWatts: An Energy-Efficient CPU Core Idle-State Architecture for
// Latency-Sensitive Server Applications" (MICRO 2022).
//
// The package exposes three layers:
//
//   - The hardware model: C-state catalog (Table 1/2), the AgileWatts
//     microarchitecture (UFPG, CCSM, PMA flows, PPA — Table 3/4,
//     Sec. 5.2 latencies) via Architecture().
//   - The platform simulator: RunService simulates a 20-CPU Skylake
//     server running Memcached/Kafka/MySQL under any of the paper's
//     named C-state configurations and returns residencies, power and
//     latency distributions.
//   - The evaluation harness: RunExperiment regenerates any table or
//     figure of the paper by name.
//
// Everything is deterministic for a fixed seed and uses only the
// standard library.
package agilewatts

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cstate"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Re-exported model types for API users.
type (
	// Catalog is the C-state parameter catalog (paper Table 1).
	Catalog = cstate.Catalog
	// StateID identifies a core C-state.
	StateID = cstate.ID
	// Architecture is the AgileWatts hardware model (Sec. 4-5).
	Architecture = core.Architecture
	// PlatformConfig is a named C-state/Turbo configuration (Sec. 7.2).
	PlatformConfig = governor.Config
	// ServiceProfile characterizes a latency-critical service.
	ServiceProfile = workload.Profile
	// Result is a simulation outcome.
	Result = server.Result
	// Options controls experiment fidelity.
	Options = experiments.Options
	// Duration is a simulated duration in nanoseconds.
	Duration = sim.Time
)

// C-state identifiers.
const (
	C0   = cstate.C0
	C1   = cstate.C1
	C1E  = cstate.C1E
	C6   = cstate.C6
	C6A  = cstate.C6A
	C6AE = cstate.C6AE
)

// Skylake returns the calibrated Skylake-server C-state catalog extended
// with AgileWatts' C6A and C6AE states.
func Skylake() *Catalog { return cstate.Skylake() }

// EPYC returns the AMD EPYC-like C-state catalog (Sec. 5.5), usable for
// heterogeneous cluster nodes.
func EPYC() *Catalog { return cstate.EPYC() }

// NewArchitecture returns the paper-calibrated AgileWatts core design.
func NewArchitecture() *Architecture { return core.NewArchitecture() }

// Named platform configurations from the paper.
var (
	Baseline       = governor.Baseline
	AW             = governor.AW
	NTBaseline     = governor.NTBaseline
	NTNoC6         = governor.NTNoC6
	NTNoC6NoC1E    = governor.NTNoC6NoC1E
	TNoC6          = governor.TNoC6
	TNoC6NoC1E     = governor.TNoC6NoC1E
	TC6ANoC6NoC1E  = governor.TC6ANoC6NoC1E
	NTC6ANoC6NoC1E = governor.NTC6ANoC6NoC1E
)

// Configs lists every named platform configuration.
func Configs() []PlatformConfig { return governor.AllConfigs() }

// ConfigByName looks up a platform configuration.
func ConfigByName(name string) (PlatformConfig, error) { return governor.ConfigByName(name) }

// Service profiles.
func Memcached() ServiceProfile { return workload.Memcached() }

// Kafka returns the event-streaming service profile.
func Kafka() ServiceProfile { return workload.Kafka() }

// MySQL returns the OLTP service profile.
func MySQL() ServiceProfile { return workload.MySQL() }

// ServiceByName resolves "memcached", "kafka" or "mysql".
func ServiceByName(name string) (ServiceProfile, error) { return workload.ByName(name) }

// Dispatch policy names accepted by ServiceRun.Dispatch.
const (
	DispatchRoundRobin  = server.DispatchRoundRobin
	DispatchRandom      = server.DispatchRandom
	DispatchLeastLoaded = server.DispatchLeastLoaded
	DispatchPacked      = server.DispatchPacked
)

// DispatchPolicies lists the built-in dispatch policy names.
func DispatchPolicies() []string { return server.DispatchPolicies() }

// Load-generator names accepted by ServiceRun.LoadGen.
const (
	LoadOpenLoop   = server.LoadOpenLoop
	LoadClosedLoop = server.LoadClosedLoop
	LoadBursty     = server.LoadBursty
)

// LoadGenerators lists the built-in load-generator names.
func LoadGenerators() []string { return server.LoadGens() }

// MemcachedETC returns the high-fidelity Memcached profile whose service
// times come from a live Zipf/LRU key-value store model (see
// internal/kvstore). The seed drives cache warming.
func MemcachedETC(seed uint64) (ServiceProfile, error) { return workload.MemcachedETC(seed) }

// ServiceRun describes one simulation.
type ServiceRun struct {
	// Platform is the C-state/Turbo configuration (default Baseline).
	Platform PlatformConfig
	// Service is the workload profile (default Memcached).
	Service ServiceProfile
	// RateQPS is the aggregate offered load.
	RateQPS float64
	// DurationNS / WarmupNS bound the run (defaults: 500ms / 50ms).
	DurationNS Duration
	WarmupNS   Duration
	// Seed fixes all randomness (default 1).
	Seed uint64
	// SnoopRatePerSec adds per-core coherence traffic (Sec. 7.5).
	SnoopRatePerSec float64
	// Dispatch selects the request-to-core placement policy (default
	// round-robin; see DispatchPolicies).
	Dispatch string
	// LoadGen selects the arrival generator (default open-loop; see
	// LoadGenerators).
	LoadGen string
	// Connections is the closed-loop connection count (selecting the
	// closed-loop generator implicitly; RateQPS is then ignored).
	Connections int
	// ThinkTimeNS is the mean closed-loop think time (default 1ms).
	ThinkTimeNS Duration
	// Schedule, when set, makes the offered load time-varying within the
	// single run: the open-loop/bursty generator follows the schedule's
	// phases instead of holding RateQPS. A constant schedule reproduces
	// the stationary run bit-for-bit.
	Schedule *Schedule
}

// withDefaults fills the run description's defaulted fields — the one
// place RunService, the fleet builders and NewServiceInstance share, so
// a directly constructed instance can never simulate a different
// machine than the one-shot API for the same ServiceRun.
func (r ServiceRun) withDefaults() ServiceRun {
	if r.Platform.Name == "" {
		r.Platform = Baseline
	}
	if r.Service.Name == "" {
		r.Service = Memcached()
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// serverConfig maps the run description onto the simulator config (the
// full mapping; callers that delegate rate/schedule/duration elsewhere
// blank those fields).
func (r ServiceRun) serverConfig() server.Config {
	return server.Config{
		Platform:        r.Platform,
		Profile:         r.Service,
		RatePerSec:      r.RateQPS,
		Duration:        r.DurationNS,
		Warmup:          r.WarmupNS,
		Seed:            r.Seed,
		SnoopRatePerSec: r.SnoopRatePerSec,
		Dispatch:        r.Dispatch,
		LoadGen:         r.LoadGen,
		Schedule:        r.Schedule,

		ClosedLoopConnections: r.Connections,
		ThinkTime:             r.ThinkTimeNS,
	}
}

// RunService simulates the paper's 20-CPU server under the given run
// description.
func RunService(r ServiceRun) (Result, error) {
	return server.RunConfig(r.withDefaults().serverConfig())
}

// Cluster dispatch policy names accepted by ClusterRun.ClusterDispatch.
const (
	ClusterSpread      = cluster.DispatchSpread
	ClusterLeastLoaded = cluster.DispatchLeastLoaded
	ClusterConsolidate = cluster.DispatchConsolidate
)

// ClusterPolicies lists the cluster-level dispatch policy names.
func ClusterPolicies() []string { return cluster.Policies() }

// NodeConfig is a full per-node server configuration, for heterogeneous
// fleets (mixed catalogs, core counts, platform configurations).
type NodeConfig = server.Config

// ClusterResult is a fleet simulation outcome: per-node results plus
// fleet power, energy proportionality, and aggregated tail latency.
type ClusterResult = cluster.Result

// ClusterRun describes one fleet simulation: the embedded ServiceRun is
// the per-node template (its RateQPS is the aggregate fleet load), and
// the cluster dispatcher partitions that load across Nodes nodes.
type ClusterRun struct {
	ServiceRun
	// Nodes is the fleet size (default 1). Node i runs with seed
	// Seed+i, so nodes see independent randomness while the fleet stays
	// reproducible from one seed.
	Nodes int
	// ClusterDispatch selects the fleet load-partitioning policy
	// (default spread; see ClusterPolicies). A 1-node spread cluster
	// reproduces RunService bit-for-bit.
	ClusterDispatch string
	// TargetUtil is the consolidate policy's per-node fill level
	// (default 0.6).
	TargetUtil float64
	// ParkDrained parks nodes that receive no load: they drain, their
	// cores drop to the deepest menu state, OS housekeeping goes
	// tickless and the package idle-state model engages, so they reach
	// package deep idle. A scenario unparks a node when load returns.
	ParkDrained bool
	// NodeOverride, when set, customizes node i's configuration after
	// the template is applied — the hook for heterogeneous fleets, e.g.
	// giving some nodes an EPYC() catalog or a different PlatformConfig.
	NodeOverride func(i int, cfg NodeConfig) NodeConfig
	// SharedSeeds gives every node the template seed instead of Seed+i.
	// Nodes assigned identical rate timelines then become bit-identical
	// simulations, which the scenario engine collapses into one
	// equivalence class per timeline — the fleet-scale dedup that makes
	// 100K-node scenario runs tractable. Statistical independence across
	// nodes is traded away; pair with ScenarioExecution.Replicas to get
	// seeded resampling error bars instead.
	SharedSeeds bool
}

// buildFleet applies the fleet defaults and expands the per-node
// configurations — the front half of RunScenario, and so of RunCluster
// and the live scenario builders. The returned ClusterRun carries the
// defaulted fields.
func buildFleet(r ClusterRun) (ClusterRun, []NodeConfig, error) {
	if r.Nodes < 0 {
		return r, nil, fmt.Errorf("agilewatts: negative cluster size %d", r.Nodes)
	}
	if r.Nodes == 0 {
		r.Nodes = 1
	}
	r.ServiceRun = r.ServiceRun.withDefaults()
	// The cluster dispatcher owns the rate (RateQPS is the aggregate it
	// partitions) and the scenario engine owns any schedule, so neither
	// reaches the node template. Connections/ThinkTime are carried
	// through so the scenario's validation rejects closed-loop runs with
	// a clear error (the cluster dispatcher partitions open-loop rates)
	// instead of silently simulating open-loop.
	template := r.ServiceRun.serverConfig()
	template.RatePerSec = 0
	template.Schedule = nil
	nodes := cluster.Homogeneous(r.Nodes, template)
	if r.SharedSeeds {
		for i := range nodes {
			nodes[i].Seed = template.Seed
		}
	}
	if r.NodeOverride != nil {
		for i := range nodes {
			nodes[i] = r.NodeOverride(i, nodes[i])
		}
	}
	return r, nodes, nil
}

// RunCluster simulates a fleet of per-node server simulations behind a
// cluster-level dispatcher and aggregates the results. It is the
// degenerate scenario: RateQPS held constant for DurationNS, in one
// epoch.
func RunCluster(r ClusterRun) (ClusterResult, error) {
	res, err := RunScenario(ScenarioRun{ClusterRun: r, Scenario: ScenarioConstant})
	if err != nil {
		return ClusterResult{}, err
	}
	return res.Epochs[0].Fleet, nil
}

// Schedule is a piecewise-linear time-varying load timeline; Phase is
// one of its segments. See the scenario package constructors re-exported
// below.
type (
	Schedule = scenario.Schedule
	Phase    = scenario.Phase
)

// Named scenario shapes accepted by NamedSchedule and ScenarioRun.Scenario.
const (
	ScenarioConstant = scenario.NameConstant
	ScenarioDiurnal  = scenario.NameDiurnal
	ScenarioSpike    = scenario.NameSpike
	ScenarioRamp     = scenario.NameRamp
)

// ScenarioNames lists the named scenario shapes.
func ScenarioNames() []string { return scenario.Names() }

// NamedSchedule builds a named scenario shape around a base rate:
// constant, diurnal (compressed sine day, trough first), spike (4x step
// over the middle fifth), or ramp (0.25x to 1.75x).
func NamedSchedule(name string, baseQPS float64, total Duration) (*Schedule, error) {
	return scenario.ByName(name, baseQPS, total)
}

// NewSchedule assembles a schedule from explicit phases (trace-like
// piecewise load).
func NewSchedule(name string, phases ...Phase) (*Schedule, error) {
	return scenario.New(name, phases...)
}

// ScenarioResult is a time-varying fleet measurement: per-epoch detail,
// per-phase aggregation, park/unpark timeline and whole-run totals.
// Classes/ReplicaRuns report the equivalence-class collapse, and CI (set
// when Replicas > 0) carries replica-ensemble 95% confidence intervals.
type ScenarioResult = cluster.ScenarioResult

// CI is a 95% confidence interval, and FleetCI the set of intervals a
// replicated scenario run attaches to its fleet-level observables
// (fleet power, QPS-per-watt, worst node p99). See
// ScenarioExecution.Replicas.
type (
	CI      = cluster.CI
	FleetCI = cluster.FleetCI
)

// Controller is a fleet autoscaling policy evaluated at epoch
// boundaries: Observe ingests the finished epoch's telemetry (a lagging
// signal) and returns the target active node count for the next epoch.
// Select one with ScenarioElasticity.Controller — a built-in by name,
// or a custom implementation through ControllerSpec.New. FleetTelemetry
// and NodeTelemetry are what a controller observes; FleetInfo is what a
// custom factory learns about the fleet at construction.
type (
	Controller     = cluster.Controller
	ControllerSpec = cluster.ControllerSpec
	FleetTelemetry = cluster.FleetTelemetry
	NodeTelemetry  = cluster.NodeTelemetry
	FleetInfo      = cluster.FleetInfo
)

// Built-in fleet controller names accepted by ControllerSpec.Name:
// oracle makes no decision and routes every epoch across the whole up
// fleet (bit-for-bit the open-loop result), reactive follows measured utilization with a hysteresis
// deadband and cooldown, predictive forecasts the offered rate with the
// menu governor's EWMA machinery at fleet granularity.
const (
	ControllerOracle     = cluster.ControllerOracle
	ControllerReactive   = cluster.ControllerReactive
	ControllerPredictive = cluster.ControllerPredictive
)

// FleetControllers lists the built-in fleet controller names.
func FleetControllers() []string { return cluster.Controllers() }

// Fault injection: a FaultSpec on ScenarioRun.Faults describes per-node
// fault windows (NodeFault) and a cluster-level correlated fault process
// (CorrelatedFaults). The zero value is a healthy fleet and leaves every
// scenario result bit-identical to a run without fault injection.
type (
	FaultSpec        = cluster.FaultSpec
	NodeFault        = cluster.NodeFault
	CorrelatedFaults = cluster.CorrelatedFaults
)

// Fault kinds accepted by NodeFault.Kind and CorrelatedFaults.Kind:
// crash (node dark, instance discarded, cold rebuild + restart penalty),
// straggler (service times inflated by Factor > 1), thermal (turbo
// ceiling capped at base + Factor·(turbo − base), Factor in [0, 1)).
const (
	FaultCrash     = cluster.FaultCrash
	FaultStraggler = cluster.FaultStraggler
	FaultThermal   = cluster.FaultThermal
)

// FaultKinds lists the built-in fault kinds.
func FaultKinds() []string { return cluster.FaultKinds() }

// Overload admission control: an OverloadSpec on ScenarioRun.Overload
// decides what happens when the offered rate exceeds the active
// fleet's capacity (per-node capacity at MaxUtil, summed over the up,
// routed nodes). The zero value disables admission control and leaves
// every scenario result bit-identical to a run without it.
type OverloadSpec = cluster.OverloadSpec

// Overload policies accepted by OverloadSpec.Policy: shed (drop the
// excess with exact request accounting), degrade (admit everything,
// record the SLO-violation epochs), queue (carry the excess into the
// next epoch as bounded backlog).
const (
	OverloadShed    = cluster.OverloadShed
	OverloadDegrade = cluster.OverloadDegrade
	OverloadQueue   = cluster.OverloadQueue
)

// OverloadPolicies lists the built-in overload policy names.
func OverloadPolicies() []string { return cluster.OverloadPolicies() }

// ScenarioExecution groups the scenario execution knobs: how much
// statistical machinery rides along, and how much per-node detail the
// result keeps.
type ScenarioExecution struct {
	// Replicas adds K seeded statistical replicas per timeline
	// equivalence class: each class's representative is re-simulated K
	// times under seeds drawn from a reserved plane disjoint from every
	// node seed, and the result gains 95% confidence intervals
	// (ScenarioResult.CI, EpochResult.CI) over fleet power, QPS-per-watt
	// and worst p99. Point estimates are untouched — K=0 and K>0 report
	// bit-identical central values. Replicas pay off with SharedSeeds,
	// where a class stands for many nodes; on a distinct-seed fleet
	// every class is a singleton and replicas only add cost.
	Replicas int
	// CompactNodes drops per-node detail (Fleet.Nodes stays nil) and
	// aggregates each epoch in O(classes) instead of O(nodes) — the mode
	// that makes 100K-node fleets run in seconds when SharedSeeds
	// collapses them to a handful of classes. Fleet-level sums, counts
	// and weighted p99-spread quantiles are computed over the class
	// multiset; sums reassociate, so they can differ from the expanded
	// path in the last ulps when a class has multiplicity > 1.
	CompactNodes bool
}

// ScenarioElasticity groups the fleet elasticity knobs: which control
// plane decides when to park and unpark nodes. The park/unpark
// transitions themselves are simulated (drain, deep idle, real exit
// latency), so they carry no cost knobs.
type ScenarioElasticity struct {
	// Controller selects the fleet autoscaling policy. The zero value
	// keeps the open-loop plan (the schedule decides everything up
	// front); a named or custom controller re-decides the active node
	// count every epoch from the previous epoch's telemetry.
	Controller ControllerSpec
}

// ScenarioRun describes one time-varying fleet simulation: the embedded
// ClusterRun supplies the fleet (nodes, platform, service, policy), and
// the schedule replaces its static RateQPS. Every EpochNS the cluster
// dispatcher re-partitions the current window's mean rate, parking and
// unparking nodes as the load moves. Execution tunes replicas and
// result detail; Elasticity controls the park/unpark transitions.
type ScenarioRun struct {
	ClusterRun
	// Scenario names a built-in shape built around RateQPS as the base
	// rate (see ScenarioNames). Ignored when Schedule is set.
	Scenario string
	// Schedule, when non-nil, is the explicit load timeline.
	Schedule *Schedule
	// TotalNS is the scenario length for named shapes (default: the
	// node measurement window, DurationNS).
	TotalNS Duration
	// EpochNS is the re-dispatch interval (default: one epoch spanning
	// the whole schedule).
	EpochNS Duration
	// Execution groups the replica and compact-aggregation knobs.
	Execution ScenarioExecution
	// Elasticity groups the autoscaling knobs.
	Elasticity ScenarioElasticity
	// Faults injects node- and cluster-level faults into the run:
	// crash/restart cycles, stragglers, thermal throttling, and a seeded
	// correlated fault process. The zero value is a healthy fleet,
	// bit-identical to a run without fault injection.
	Faults FaultSpec
	// Overload enables per-epoch admission control when the offered
	// load exceeds the active fleet's capacity: shed, degrade or queue
	// the excess (see OverloadSpec). The zero value disables it,
	// bit-identical to a run without admission control.
	Overload OverloadSpec
}

// scenarioConfig maps the run description onto the cluster scenario
// configuration — the shared front half of RunScenario and
// ValidateScenario, so validation can never drift from execution.
func scenarioConfig(r ScenarioRun) (cluster.ScenarioConfig, error) {
	run, nodes, err := buildFleet(r.ClusterRun)
	if err != nil {
		return cluster.ScenarioConfig{}, err
	}
	sched := r.Schedule
	if sched == nil {
		name := r.Scenario
		if name == "" {
			name = ScenarioDiurnal
		}
		total := r.TotalNS
		if total == 0 {
			total = run.DurationNS
		}
		if total == 0 {
			total = 500 * sim.Millisecond // server.Config default duration
		}
		sched, err = scenario.ByName(name, run.RateQPS, total)
		if err != nil {
			return cluster.ScenarioConfig{}, err
		}
	}
	// The template's Duration is irrelevant here: the scenario engine
	// assigns every node its epoch window length per epoch.
	return cluster.ScenarioConfig{
		Nodes:        nodes,
		Schedule:     sched,
		Epoch:        r.EpochNS,
		Dispatch:     run.ClusterDispatch,
		TargetUtil:   run.TargetUtil,
		ParkDrained:  run.ParkDrained,
		Controller:   r.Elasticity.Controller,
		Replicas:     r.Execution.Replicas,
		CompactNodes: r.Execution.CompactNodes,
		Faults:       r.Faults,
		Overload:     r.Overload,
	}, nil
}

// RunScenario simulates a fleet under time-varying load with
// epoch-stepped re-dispatch.
func RunScenario(r ScenarioRun) (ScenarioResult, error) {
	cfg, err := scenarioConfig(r)
	if err != nil {
		return ScenarioResult{}, err
	}
	return cluster.RunScenario(cfg)
}

// ValidateScenario rejects an unusable run description without
// simulating anything. It shares RunScenario's exact mapping and
// Normalize pass, so a description rejected here fails RunScenario with
// the identical error — the guarantee the CLIs rely on to refuse an
// invalid -scenario-file before any partial run.
func ValidateScenario(r ScenarioRun) error {
	cfg, err := scenarioConfig(r)
	if err != nil {
		return err
	}
	return cfg.Validate()
}

// ServiceInstance is a resumable single-server simulation: built once,
// then advanced interval by interval with RunInterval(window, rate),
// carrying engine time, C-state residency, queues, RNG streams and
// collector state across calls — the building block of the warm
// scenario path. IntervalResult is one interval's measurement.
type (
	ServiceInstance = server.Instance
	IntervalResult  = server.IntervalResult
)

// NewServiceInstance constructs a resumable simulation from the run
// description. RateQPS, DurationNS and Schedule are ignored — every
// RunInterval brings its own window and rate; WarmupNS is paid once,
// inside the first interval. parkOnZeroRate makes zero-rate intervals
// quiesce the node into package deep idle.
func NewServiceInstance(r ServiceRun, parkOnZeroRate bool) (*ServiceInstance, error) {
	// NewInstance itself ignores rate/schedule/duration (every interval
	// brings its own), so the full mapping is safe to hand over.
	return server.NewInstance(r.withDefaults().serverConfig(), parkOnZeroRate)
}

// RunnerStats reports the shared sweep executor's memoization counters
// (cache hits and misses; uncacheable runs count as misses). Timeline
// runs of the warm scenario path are included alongside one-shot
// simulations, so sweep-level memoization wins are observable.
func RunnerStats() (hits, misses uint64) { return runner.Default().Stats() }

// RunnerDedupStats reports the shared executor's equivalence-class
// counters across warm scenario runs: nodes planned, timeline classes
// actually simulated, and replica runs added for error bars. A large
// nodes-to-classes ratio is the class-dedup win (see
// ClusterRun.SharedSeeds).
func RunnerDedupStats() (nodes, classes, replicaRuns uint64) {
	return runner.Default().ClassStats()
}

// Experiment names accepted by RunExperiment.
const (
	ExpTable1     = "table1"
	ExpTable2     = "table2"
	ExpTable3     = "table3"
	ExpTable4     = "table4"
	ExpTable5     = "table5"
	ExpMotivation = "motivation"
	ExpLatency    = "latency"
	ExpFigure8    = "figure8"
	ExpFigure9    = "figure9"
	ExpFigure10   = "figure10"
	ExpFigure11   = "figure11"
	ExpFigure12   = "figure12"
	ExpFigure13   = "figure13"
	ExpValidation = "validation"
	ExpSnoop      = "snoop"
	// Extensions beyond the paper's figures:
	ExpAMD            = "amd"             // Sec. 5.5 EPYC analysis
	ExpAblateGovernor = "ablate-governor" // idle-policy ablation
	ExpAblateZones    = "ablate-zones"    // UFPG zone-count ablation
	ExpAblatePower    = "ablate-power"    // C6A power-budget sensitivity
	ExpAblateNoise    = "ablate-noise"    // OS-noise sensitivity
	ExpRaceToHalt     = "racetohalt"      // Sec. 8: race-to-halt vs DVFS pacing
	ExpPkgIdle        = "pkgidle"         // AgilePkgC-direction package state
	ExpBreakdown      = "breakdown"       // wake/queue/service latency decomposition
	ExpProportion     = "proportionality" // Sec. 7.1 energy-proportionality framing
	ExpDispatch       = "dispatch"        // dispatch-policy power/tail trade-off
	ExpCluster        = "cluster"         // fleet spread-vs-consolidate study
	ExpScenario       = "scenario"        // time-varying load: diurnal/spike fleet study
	ExpFaults         = "faults"          // fault injection: oracle vs reactive under crash-under-spike
	ExpOverload       = "overload"        // admission control: shed vs degrade vs queue past capacity
)

// Experiments returns all experiment names in stable order.
func Experiments() []string {
	names := []string{
		ExpTable1, ExpTable2, ExpTable3, ExpTable4, ExpTable5,
		ExpMotivation, ExpLatency,
		ExpFigure8, ExpFigure9, ExpFigure10, ExpFigure11, ExpFigure12, ExpFigure13,
		ExpValidation, ExpSnoop,
		ExpAMD, ExpAblateGovernor, ExpAblateZones, ExpAblatePower, ExpAblateNoise,
		ExpRaceToHalt, ExpPkgIdle, ExpBreakdown, ExpProportion, ExpDispatch,
		ExpCluster, ExpScenario, ExpFaults, ExpOverload,
	}
	sort.Strings(names)
	return names
}

// DefaultOptions returns full-fidelity experiment settings.
func DefaultOptions() Options { return experiments.DefaultOptions() }

// QuickOptions returns fast low-fidelity settings.
func QuickOptions() Options { return experiments.QuickOptions() }

// RunExperiment regenerates the named table/figure and writes its
// report(s) to w.
func RunExperiment(name string, o Options, w io.Writer) error {
	render := func(tables ...*report.Table) error {
		for _, t := range tables {
			if err := t.Render(w); err != nil {
				return err
			}
		}
		return nil
	}
	switch name {
	case ExpTable1:
		return render(experiments.Table1().Table())
	case ExpTable2:
		return render(experiments.Table2())
	case ExpTable3:
		return render(experiments.Table3().Table())
	case ExpTable4:
		return render(experiments.Table4())
	case ExpTable5:
		r, err := experiments.Table5(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpMotivation:
		return render(experiments.Motivation().Table())
	case ExpLatency:
		return render(experiments.TransitionLatency().Table())
	case ExpFigure8:
		r, err := experiments.Figure8(o)
		if err != nil {
			return err
		}
		return render(r.ResidencyTable(), r.SavingsTable(), r.DegradationTable(), r.ScalabilityTable())
	case ExpFigure9:
		r, err := experiments.Figure9(o)
		if err != nil {
			return err
		}
		return render(r.LatencyTable(), r.PowerTable(), r.ResidencyTable())
	case ExpFigure10:
		r, err := experiments.Figure10(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpFigure11:
		r, err := experiments.Figure11(o)
		if err != nil {
			return err
		}
		return render(r.Table(), r.TurboFractionTable())
	case ExpFigure12:
		r, err := experiments.Figure12(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpFigure13:
		r, err := experiments.Figure13(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpValidation:
		return render(experiments.Validation(o).Table())
	case ExpSnoop:
		return render(experiments.SnoopImpact().Table())
	case ExpAMD:
		r, err := experiments.AMD(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpAblateGovernor:
		r, err := experiments.GovernorAblation(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpAblateZones:
		return render(experiments.ZoneAblation().Table())
	case ExpAblatePower:
		return render(experiments.PowerBudgetAblation().Table())
	case ExpAblateNoise:
		r, err := experiments.NoiseAblation(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpRaceToHalt:
		r, err := experiments.RaceToHalt(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpPkgIdle:
		r, err := experiments.PkgIdle(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpBreakdown:
		r, err := experiments.Breakdown(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpProportion:
		r, err := experiments.Proportionality(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpDispatch:
		r, err := experiments.Dispatch(o)
		if err != nil {
			return err
		}
		return render(r.Table(), r.ResidencyTable())
	case ExpCluster:
		r, err := experiments.Cluster(o)
		if err != nil {
			return err
		}
		return render(r.Table(), r.CostTable())
	case ExpScenario:
		r, err := experiments.Scenario(o)
		if err != nil {
			return err
		}
		c, err := experiments.ScenarioControllers(o)
		if err != nil {
			return err
		}
		return render(r.PhaseTable(), r.EpochTable(), c.ControllerTable())
	case ExpFaults:
		r, err := experiments.Faults(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	case ExpOverload:
		r, err := experiments.Overload(o)
		if err != nil {
			return err
		}
		return render(r.Table())
	default:
		return fmt.Errorf("agilewatts: unknown experiment %q (known: %v)", name, Experiments())
	}
}
