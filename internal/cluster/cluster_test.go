package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cstate"
	"repro/internal/datacenter"
	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// quickNode returns a short-window node config.
func quickNode(rate float64) server.Config {
	return server.Config{
		Platform:   governor.Baseline,
		Profile:    workload.Memcached(),
		RatePerSec: rate,
		Duration:   100 * sim.Millisecond,
		Warmup:     10 * sim.Millisecond,
		Seed:       42,
	}
}

// runCluster runs the fleet as a static fleet run: one epoch of a
// constant schedule holding rate over the first node's measurement
// window. It returns the epoch's fleet result.
func runCluster(t *testing.T, c ScenarioConfig, rate float64) Result {
	t.Helper()
	c.Schedule = mustSchedule(scenario.Constant("steady", rate, c.Nodes[0].Duration))
	res := runScenario(t, c)
	if len(res.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1", len(res.Epochs))
	}
	return res.Epochs[0].Fleet
}

// TestOneNodeSpreadMatchesRunService is the superset guarantee: a 1-node
// spread cluster must reproduce the standalone single-server simulator
// bit-for-bit — same Config in, same Result out, every field.
func TestOneNodeSpreadMatchesRunService(t *testing.T) {
	node := quickNode(0) // rate comes from the cluster dispatcher
	want, err := server.RunConfig(func() server.Config {
		cfg := node
		cfg.RatePerSec = 150e3
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	got := runCluster(t, ScenarioConfig{
		Nodes:    []server.Config{node},
		Dispatch: DispatchSpread,
	}, 150e3)
	if len(got.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(got.Nodes))
	}
	if !reflect.DeepEqual(got.Nodes[0].Result, want) {
		t.Errorf("1-node spread cluster diverged from server.RunConfig:\n got %+v\nwant %+v",
			got.Nodes[0].Result, want)
	}
	// The fleet aggregates must degenerate to the node's exact values.
	if got.Server != want.Server || got.EndToEnd != want.EndToEnd {
		t.Error("1-node aggregate latency summaries are not the node's own")
	}
	if got.FleetPowerW != want.PackagePowerW {
		t.Errorf("fleet power %v != node package power %v", got.FleetPowerW, want.PackagePowerW)
	}
	if got.CompletedPerSec != want.CompletedPerSec {
		t.Errorf("fleet throughput %v != node throughput %v", got.CompletedPerSec, want.CompletedPerSec)
	}
}

func TestSpreadSplitsEvenlyAndDeterministically(t *testing.T) {
	c := ScenarioConfig{Nodes: Homogeneous(4, quickNode(0))}
	res := runCluster(t, c, 400e3)
	if res.ActiveNodes != 4 || res.IdleNodes != 0 {
		t.Fatalf("active/idle = %d/%d, want 4/0", res.ActiveNodes, res.IdleNodes)
	}
	for _, n := range res.Nodes {
		if n.RateQPS != 100e3 {
			t.Errorf("node %d rate %v, want 100000", n.Node, n.RateQPS)
		}
	}
	// Per-node seeds differ, so nodes are independent samples, not copies.
	if res.Nodes[0].Result.Server.P99US == res.Nodes[1].Result.Server.P99US &&
		res.Nodes[0].Result.AvgCorePowerW == res.Nodes[1].Result.AvgCorePowerW {
		t.Error("distinct node seeds produced identical node results")
	}
	again := runCluster(t, c, 400e3)
	if !reflect.DeepEqual(res, again) {
		t.Error("fleet run not deterministic")
	}
}

func TestLeastLoadedEqualizesHeterogeneousUtilization(t *testing.T) {
	small := quickNode(0)
	small.Cores = 10
	big := quickNode(0)
	big.Cores = 40
	c := ScenarioConfig{
		Nodes:    []server.Config{small, big},
		Dispatch: DispatchLeastLoaded,
	}
	res := runCluster(t, c, 200e3)
	// Capacity ratio is 1:4, so the split must be 40K/160K.
	if math.Abs(res.Nodes[0].RateQPS-40e3) > 1 || math.Abs(res.Nodes[1].RateQPS-160e3) > 1 {
		t.Errorf("rates = %v/%v, want 40000/160000",
			res.Nodes[0].RateQPS, res.Nodes[1].RateQPS)
	}
}

func TestConsolidatePacksAndParks(t *testing.T) {
	c := ScenarioConfig{
		Nodes:       Homogeneous(4, quickNode(0)),
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	}
	res := runCluster(t, c, 100e3)
	// 100K QPS fits well inside one node at TargetUtil, so exactly one
	// node carries load and three are parked.
	if res.ActiveNodes != 1 || res.IdleNodes != 3 {
		t.Fatalf("active/idle = %d/%d, want 1/3", res.ActiveNodes, res.IdleNodes)
	}
	for _, n := range res.Nodes[1:] {
		if !n.Parked {
			t.Errorf("drained node %d not parked", n.Node)
		}
		// A parked node reaches package deep idle: its uncore power falls
		// below the always-on 30 W floor.
		if n.Result.PkgIdleFraction <= 0.9 {
			t.Errorf("parked node %d package-idle fraction %v, want > 0.9",
				n.Node, n.Result.PkgIdleFraction)
		}
		if n.Result.UncoreAvgW >= 29 {
			t.Errorf("parked node %d uncore %vW, want deep-idle", n.Node, n.Result.UncoreAvgW)
		}
		// Cores go to the deepest enabled state, not the menu governor's
		// cold-start C1: whole-node power collapses to the package floor.
		if n.Result.PackagePowerW >= 15 {
			t.Errorf("parked node %d package power %vW, want < 15W", n.Node, n.Result.PackagePowerW)
		}
	}
	// The packed fleet draws less than the spread fleet at this load.
	spread := runCluster(t, ScenarioConfig{Nodes: Homogeneous(4, quickNode(0))}, 100e3)
	if res.FleetPowerW >= spread.FleetPowerW {
		t.Errorf("consolidate fleet %vW not below spread %vW",
			res.FleetPowerW, spread.FleetPowerW)
	}
	// Consolidation concentrates the work: the packed node runs busier
	// (more C0 time) than any spread node. (Its p99 need not be worse at
	// low load — spread nodes idle deeper and pay larger wake penalties,
	// the paper's Sec. 2 effect.)
	packedC0 := res.Nodes[0].Result.Residency[cstate.C0]
	for _, n := range spread.Nodes {
		if packedC0 <= n.Result.Residency[cstate.C0] {
			t.Errorf("packed node C0 %.4f not above spread node %d C0 %.4f",
				packedC0, n.Node, n.Result.Residency[cstate.C0])
		}
	}
	// Energy proportionality improves: more completions per watt.
	if res.QPSPerWatt <= spread.QPSPerWatt {
		t.Errorf("consolidate QPS/W %v not above spread %v", res.QPSPerWatt, spread.QPSPerWatt)
	}
}

func TestConsolidateSpillsOverflowProportionally(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	rates := partitionConsolidate(nodes, 1e9, defaultTargetUtil)
	var total float64
	for _, r := range rates {
		total += r
	}
	if math.Abs(total-1e9) > 1 {
		t.Errorf("overflow partition dropped load: %v of 1e9", total)
	}
	if rates[0] <= 0 || rates[1] <= 0 {
		t.Errorf("overflow not spread across nodes: %v", rates)
	}
}

func TestHeterogeneousCatalogs(t *testing.T) {
	skx := quickNode(0)
	epyc := quickNode(0)
	epyc.Catalog = cstate.EPYC()
	epyc.Platform = governor.Config{Name: "EPYC_AllCStates",
		Menu: []cstate.ID{cstate.C1, cstate.C1E, cstate.C6}}
	res := runCluster(t, ScenarioConfig{Nodes: []server.Config{skx, epyc}}, 200e3)
	if res.Nodes[0].Result.AvgCorePowerW == res.Nodes[1].Result.AvgCorePowerW {
		t.Error("mixed Skylake/EPYC nodes reported identical core power")
	}
	if res.FleetPowerW <= 0 || res.CompletedPerSec <= 0 {
		t.Error("heterogeneous fleet produced empty aggregates")
	}
}

func TestMixedPlatformFleet(t *testing.T) {
	base := quickNode(0)
	aw := quickNode(0)
	aw.Platform = governor.AW
	res := runCluster(t, ScenarioConfig{Nodes: []server.Config{base, aw}}, 200e3)
	// The AW node must draw less core power than the Baseline node at the
	// same per-node load (the paper's headline claim, fleet edition).
	if res.Nodes[1].Result.AvgCorePowerW >= res.Nodes[0].Result.AvgCorePowerW {
		t.Errorf("AW node %vW not below Baseline node %vW",
			res.Nodes[1].Result.AvgCorePowerW, res.Nodes[0].Result.AvgCorePowerW)
	}
}

// TestMeasuredFleetSavingsAgreeWithExtrapolation pins the bridge between
// the cluster layer and Table 5: for a homogeneous fleet of identical
// nodes (same seed, so bit-identical simulations), the cluster-measured
// savings must agree exactly with extrapolating one server — the
// fleet-of-N measurement is N copies of the per-server measurement.
func TestMeasuredFleetSavingsAgreeWithExtrapolation(t *testing.T) {
	const n = 3
	identical := func(platform governor.Config) []server.Config {
		nodes := make([]server.Config, n)
		for i := range nodes {
			cfg := quickNode(0)
			cfg.Platform = platform
			nodes[i] = cfg // same seed on purpose: identical nodes
		}
		return nodes
	}
	fleetW := func(platform governor.Config) float64 {
		res := runCluster(t, ScenarioConfig{Nodes: identical(platform)}, n*100e3)
		return res.FleetPowerW
	}
	singleW := func(platform governor.Config) float64 {
		cfg := quickNode(100e3)
		cfg.Platform = platform
		res, err := server.RunConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PackagePowerW
	}
	fleetDelta := fleetW(governor.Baseline) - fleetW(governor.AW)
	perServer := singleW(governor.Baseline) - singleW(governor.AW)
	model := datacenter.NewCostModel()
	measured, err := model.YearlySavingsMeasuredFleetM(fleetDelta, n)
	if err != nil {
		t.Fatal(err)
	}
	extrapolated := model.YearlySavingsFleetM(perServer)
	if math.Abs(measured-extrapolated) > 1e-9 {
		t.Errorf("measured fleet savings %v != per-server extrapolation %v (fleet delta %v, per-server %v)",
			measured, extrapolated, fleetDelta, perServer)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	// run builds the constant schedule a static fleet run needs, then
	// runs the fleet; either step may reject the input.
	run := func(c ScenarioConfig, rate float64) error {
		sched, err := scenario.Constant("steady", rate, 10*sim.Millisecond)
		if err != nil {
			return err
		}
		c.Schedule = sched
		_, err = RunScenario(c)
		return err
	}
	if err := run(ScenarioConfig{}, 1); err == nil || !strings.Contains(err.Error(), "cluster: no nodes") {
		t.Errorf("empty fleet: err = %v", err)
	}
	if err := run(ScenarioConfig{Nodes: Homogeneous(1, quickNode(0))}, -1); err == nil {
		t.Error("negative rate accepted")
	}
	if err := run(ScenarioConfig{Nodes: Homogeneous(1, quickNode(0)), Dispatch: "route-66"}, 1); err == nil ||
		!strings.Contains(err.Error(), `unknown dispatch policy "route-66"`) {
		t.Errorf("unknown policy: err = %v", err)
	}
	closed := quickNode(0)
	closed.LoadGen = server.LoadClosedLoop
	closed.ClosedLoopConnections = 8
	if err := run(ScenarioConfig{Nodes: []server.Config{closed}}, 1); err == nil ||
		!strings.Contains(err.Error(), "node 0 uses closed-loop load") {
		t.Errorf("closed-loop node: err = %v", err)
	}
	if err := run(ScenarioConfig{Nodes: Homogeneous(1, quickNode(0)), TargetUtil: 1.5}, 1); err == nil ||
		!strings.Contains(err.Error(), "TargetUtil 1.5 out of (0,1]") {
		t.Errorf("TargetUtil > 1: err = %v", err)
	}
}

func TestCombineSummariesWeighting(t *testing.T) {
	a := server.LatencySummary{Count: 100, AvgUS: 10, P99US: 20, MaxUS: 30}
	b := server.LatencySummary{Count: 300, AvgUS: 20, P99US: 40, MaxUS: 25}
	got := combineSummaries([]server.LatencySummary{a, b, {}}, nil)
	if got.Count != 400 {
		t.Errorf("count = %d", got.Count)
	}
	if math.Abs(got.AvgUS-17.5) > 1e-12 {
		t.Errorf("avg = %v, want 17.5", got.AvgUS)
	}
	if math.Abs(got.P99US-35) > 1e-12 {
		t.Errorf("p99 = %v, want 35", got.P99US)
	}
	if got.MaxUS != 30 {
		t.Errorf("max = %v, want 30", got.MaxUS)
	}
}
