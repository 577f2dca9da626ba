package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sharedFleet returns n bit-identical node configs (same seed), the
// shape that collapses to a single timeline equivalence class under
// spread dispatch. Contrast Homogeneous, which decorrelates nodes with
// per-index seeds and therefore yields singleton classes.
func sharedFleet(n int, template server.Config) []server.Config {
	nodes := make([]server.Config, n)
	for i := range nodes {
		nodes[i] = template
	}
	return nodes
}

// approxEq compares within relative tolerance (weighted sums reassociate
// float additions, so collapsed multi-member sums may differ from the
// expanded path in the last ulps).
func approxEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// classifyFixture resolves and plans BenchmarkRunScenario100K's day
// (24 x 2ms diurnal epochs, spread, park) for an n-node fleet: shared
// seeds collapse it to one timeline class, distinct seeds leave n.
func classifyFixture(tb testing.TB, n int, shared bool) (resolvedScenario, []epochWindow) {
	tb.Helper()
	node := quickNode(0)
	nodes := Homogeneous(n, node)
	if shared {
		nodes = sharedFleet(n, node)
	}
	sched, err := scenario.Diurnal(float64(n)*800e3, 0.6, 48*sim.Millisecond, 12)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := ScenarioConfig{
		Nodes:       nodes,
		Schedule:    sched,
		Epoch:       2 * sim.Millisecond,
		Dispatch:    DispatchSpread,
		ParkDrained: true,
	}.Normalize()
	if err != nil {
		tb.Fatal(err)
	}
	part, err := partitioner(c.Dispatch)
	if err != nil {
		tb.Fatal(err)
	}
	return c, planEpochs(c, part, c.total)
}

// TestClassifyAllocatesPerClass pins that classification allocates per
// class, not per node: a shared-seed fleet costs the same allocations
// at 1K nodes as at 16K, and each further class costs a bounded few.
func TestClassifyAllocatesPerClass(t *testing.T) {
	allocs := func(n int, shared bool) float64 {
		c, plan := classifyFixture(t, n, shared)
		wantClasses := n
		if shared {
			wantClasses = 1
		}
		if got := len(classifyTimelines(c, plan, nil)); got != wantClasses {
			t.Fatalf("%d nodes (shared=%v) formed %d classes, want %d", n, shared, got, wantClasses)
		}
		return testing.AllocsPerRun(3, func() { classifyTimelines(c, plan, nil) })
	}
	small, large := allocs(1_000, true), allocs(16_000, true)
	if small != large || large > 32 {
		t.Errorf("one class costs %v allocs at 1K nodes and %v at 16K, want equal and at most 32", small, large)
	}
	d1, d2 := allocs(500, false), allocs(1_000, false)
	if perClass := (d2 - d1) / 500; perClass > 4 {
		t.Errorf("each distinct class costs %.1f allocs, want at most 4", perClass)
	}
}

// TestSharedSeedSpreadCollapsesToOneClass is the tentpole's happy path:
// a shared-seed fleet under spread dispatch is one equivalence class,
// every expanded node result is the representative's, and the compact
// mode reports the same fleet aggregates without materializing nodes.
func TestSharedSeedSpreadCollapsesToOneClass(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := sharedFleet(8, node)
	total := 80 * sim.Millisecond
	sched := mustSchedule(scenario.Diurnal(8*400e3, 0.6, total, 4))
	r := runner.New(0)
	cfg := ScenarioConfig{
		Nodes:    nodes,
		Schedule: sched,
		Epoch:    20 * sim.Millisecond,
		Runner:   r,
	}
	res := runScenario(t, cfg)
	if res.Classes != 1 {
		t.Fatalf("classes = %d, want 1 (shared-seed spread fleet)", res.Classes)
	}
	if res.ReplicaRuns != 0 {
		t.Errorf("replica runs = %d with Replicas unset", res.ReplicaRuns)
	}
	if cn, cc, ck := r.ClassStats(); cn != 8 || cc != 1 || ck != 0 {
		t.Errorf("runner class stats = %d/%d/%d, want 8/1/0", cn, cc, ck)
	}
	for _, ep := range res.Epochs {
		if len(ep.Fleet.Nodes) != 8 {
			t.Fatalf("epoch %d expanded %d nodes, want 8", ep.Epoch, len(ep.Fleet.Nodes))
		}
		if ep.Fleet.ActiveNodes != 8 {
			t.Errorf("epoch %d active = %d, want 8 under spread", ep.Epoch, ep.Fleet.ActiveNodes)
		}
		for i, n := range ep.Fleet.Nodes {
			if !reflect.DeepEqual(n.Result, ep.Fleet.Nodes[0].Result) {
				t.Fatalf("epoch %d node %d result diverged from its class representative", ep.Epoch, i)
			}
		}
	}

	compact := cfg
	compact.CompactNodes = true
	compact.Runner = runner.New(0)
	cres := runScenario(t, compact)
	if cres.Classes != 1 {
		t.Fatalf("compact classes = %d, want 1", cres.Classes)
	}
	if len(cres.Epochs) != len(res.Epochs) {
		t.Fatalf("compact epochs %d vs %d", len(cres.Epochs), len(res.Epochs))
	}
	for e := range res.Epochs {
		ef, cf := res.Epochs[e].Fleet, cres.Epochs[e].Fleet
		if cf.Nodes != nil {
			t.Fatalf("epoch %d: compact run materialized %d nodes", e, len(cf.Nodes))
		}
		if !approxEq(cf.FleetPowerW, ef.FleetPowerW) || !approxEq(cf.FleetEnergyJ, ef.FleetEnergyJ) ||
			!approxEq(cf.CompletedPerSec, ef.CompletedPerSec) || !approxEq(cf.QPSPerWatt, ef.QPSPerWatt) {
			t.Errorf("epoch %d compact fleet sums diverged: %+v vs %+v", e, cf, ef)
		}
		if cf.ActiveNodes != ef.ActiveNodes || cf.IdleNodes != ef.IdleNodes {
			t.Errorf("epoch %d compact node counts %d/%d vs %d/%d",
				e, cf.ActiveNodes, cf.IdleNodes, ef.ActiveNodes, ef.IdleNodes)
		}
		if cf.Server.Count != ef.Server.Count {
			t.Errorf("epoch %d compact latency count %d vs %d", e, cf.Server.Count, ef.Server.Count)
		}
		// One class: the spread quantiles collapse to the class's own p99
		// in both modes, exactly.
		if cf.WorstP99US != ef.WorstP99US || cf.MedianP99US != ef.MedianP99US || cf.P90P99US != ef.P90P99US {
			t.Errorf("epoch %d compact p99 spread diverged", e)
		}
	}
}

// TestCompactSingletonClassesBitIdentical pins the weighted collector's
// m=1 exactness: over a fleet of singleton classes (Homogeneous's
// distinct seeds), the compact path must reproduce the expanded path's
// fleet aggregates bit-for-bit — the only difference being the absent
// per-node detail.
func TestCompactSingletonClassesBitIdentical(t *testing.T) {
	nodes := Homogeneous(3, quickNode(0))
	sched := mustSchedule(scenario.ByName(scenario.NameRamp, 300e3, 100*sim.Millisecond))
	cfg := ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 25 * sim.Millisecond}
	expanded := runScenario(t, cfg)
	if expanded.Classes != 3 {
		t.Fatalf("classes = %d, want 3 singletons (distinct seeds)", expanded.Classes)
	}
	compact := cfg
	compact.CompactNodes = true
	cres := runScenario(t, compact)
	// Strip the per-node detail from the expanded run; everything else
	// must match exactly.
	for e := range expanded.Epochs {
		expanded.Epochs[e].Fleet.Nodes = nil
	}
	if !reflect.DeepEqual(expanded, cres) {
		t.Errorf("compact singleton-class run diverged from expanded:\n got %+v\nwant %+v", cres, expanded)
	}
}

// TestReplicasAddErrorBarsWithoutPerturbingPointEstimates is the
// exactness contract on K: replicas only ever add CI fields — every
// point estimate stays bit-identical to the replica-free run.
func TestReplicasAddErrorBarsWithoutPerturbingPointEstimates(t *testing.T) {
	node := quickNode(0)
	node.Duration = 30 * sim.Millisecond
	node.Warmup = 5 * sim.Millisecond
	nodes := sharedFleet(4, node)
	total := 120 * sim.Millisecond
	sched := mustSchedule(scenario.Spike(4*300e3, 4, total, total/3, total/3))
	cfg := ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: total / 4}
	base := runScenario(t, cfg)
	if base.CI != nil {
		t.Fatal("CI reported without replicas")
	}
	for _, ep := range base.Epochs {
		if ep.CI != nil {
			t.Fatal("epoch CI reported without replicas")
		}
	}

	rcfg := cfg
	rcfg.Replicas = 3
	rep := runScenario(t, rcfg)
	if rep.Classes != base.Classes {
		t.Fatalf("classes changed with replicas: %d vs %d", rep.Classes, base.Classes)
	}
	if rep.ReplicaRuns != rep.Classes*3 {
		t.Errorf("replica runs = %d, want %d", rep.ReplicaRuns, rep.Classes*3)
	}
	for e := range base.Epochs {
		if !reflect.DeepEqual(base.Epochs[e].Fleet, rep.Epochs[e].Fleet) {
			t.Fatalf("epoch %d point estimates perturbed by replicas", e)
		}
		ci := rep.Epochs[e].CI
		if ci == nil || ci.Samples != 4 {
			t.Fatalf("epoch %d CI = %+v, want 4-sample ensemble", e, ci)
		}
		for _, iv := range []CI{ci.FleetPowerW, ci.QPSPerWatt, ci.WorstP99US} {
			if !(iv.Lo <= iv.Hi) {
				t.Errorf("epoch %d inverted interval %+v", e, iv)
			}
		}
	}
	if base.AvgFleetPowerW != rep.AvgFleetPowerW || base.WorstP99US != rep.WorstP99US ||
		base.QPSPerWatt != rep.QPSPerWatt || base.FleetEnergyJ != rep.FleetEnergyJ {
		t.Error("whole-run point estimates perturbed by replicas")
	}
	ci := rep.CI
	if ci == nil || ci.Samples != 4 {
		t.Fatalf("whole-run CI = %+v, want 4-sample ensemble", ci)
	}
	// Distinct replica seeds must actually decorrelate: a degenerate
	// zero-width power interval would mean the replicas re-ran the
	// representative's bits.
	if ci.FleetPowerW.Lo == ci.FleetPowerW.Hi {
		t.Error("replica ensemble produced a zero-width fleet-power interval")
	}
}

// TestUncacheableNodesStaySingletonClasses pins the conservative side of
// classification: nodes whose configs cannot be fingerprinted (custom
// catalog) never prove equivalence, so even bit-identical ones stay
// their own class — graceful degradation, never unsound collapse.
func TestUncacheableNodesStaySingletonClasses(t *testing.T) {
	node := quickNode(0)
	node.Catalog = cstate.EPYC()
	node.Platform = governor.Config{Name: "EPYC_AllCStates",
		Menu: []cstate.ID{cstate.C1, cstate.C1E, cstate.C6}}
	nodes := sharedFleet(3, node)
	sched := mustSchedule(scenario.Constant("steady", 300e3, 40*sim.Millisecond))
	res := runScenario(t, ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 20 * sim.Millisecond})
	if res.Classes != 3 {
		t.Errorf("classes = %d, want 3 (uncacheable nodes must not collapse)", res.Classes)
	}
	if res.AvgFleetPowerW <= 0 {
		t.Error("uncacheable fleet produced empty aggregates")
	}
}

// TestScenarioReplicaValidation pins the new knobs' error paths.
func TestScenarioReplicaValidation(t *testing.T) {
	nodes := Homogeneous(1, quickNode(0))
	sched := mustSchedule(scenario.Constant("steady", 1e3, sim.Second))
	base := ScenarioConfig{Nodes: nodes, Schedule: sched}
	neg := base
	neg.Replicas = -1
	if _, err := RunScenario(neg); err == nil {
		t.Error("negative replicas accepted")
	}
	huge := base
	huge.Replicas = 1 << 12
	if _, err := RunScenario(huge); err == nil || !strings.Contains(err.Error(), "seed plane") {
		t.Errorf("plane-overflowing replicas accepted: %v", err)
	}
}

// TestCompactLargeSharedFleet exercises the datacenter shape end to end
// at a CI-friendly size: thousands of shared-seed nodes collapse to one
// class, run compact with replicas, and report CIs — the 100K benchmark
// configuration in miniature.
func TestCompactLargeSharedFleet(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	const n = 2048
	nodes := sharedFleet(n, node)
	total := 40 * sim.Millisecond
	sched := mustSchedule(scenario.Diurnal(n*400e3, 0.6, total, 4))
	r := runner.New(0)
	res := runScenario(t, ScenarioConfig{
		Nodes:        nodes,
		Schedule:     sched,
		Epoch:        10 * sim.Millisecond,
		ParkDrained:  true,
		Replicas:     2,
		CompactNodes: true,
		Runner:       r,
	})
	if res.Classes != 1 || res.ReplicaRuns != 2 {
		t.Fatalf("classes/replicas = %d/%d, want 1/2", res.Classes, res.ReplicaRuns)
	}
	if cn, cc, ck := r.ClassStats(); cn != n || cc != 1 || ck != 2 {
		t.Errorf("runner class stats = %d/%d/%d, want %d/1/2", cn, cc, ck, n)
	}
	if res.CI == nil || res.CI.Samples != 3 {
		t.Fatalf("whole-run CI = %+v, want 3-sample ensemble", res.CI)
	}
	for _, ep := range res.Epochs {
		if ep.Fleet.Nodes != nil {
			t.Fatal("compact run materialized nodes")
		}
		if ep.Fleet.ActiveNodes != n {
			t.Errorf("epoch %d active = %d, want %d under spread", ep.Epoch, ep.Fleet.ActiveNodes, n)
		}
		if ep.CI == nil {
			t.Errorf("epoch %d missing CI", ep.Epoch)
		}
	}
	if res.AvgFleetPowerW <= 0 || res.QPSPerWatt <= 0 {
		t.Error("empty aggregates from the compact large fleet")
	}
}

// FuzzTimelineClassKey fuzzes the equivalence-class fingerprint: two
// nodes with identical config and timeline must always land in the same
// class, and a single differing behavioral field — cores, platform,
// seed, park flag, one interval's rate, the timeline shape, the
// profile — must split them. A custom catalog makes the key refuse
// entirely (uncacheable nodes never group). The classifiers' reusing
// KeyEncoder, handed the specs in turn, must key each exactly as the
// one-shot TimelineKey does.
func FuzzTimelineClassKey(f *testing.F) {
	f.Add(uint64(42), uint8(0), true, 100e3)
	f.Add(uint64(0), uint8(1), false, 0.0)
	f.Add(uint64(7), uint8(2), true, 800e3)
	f.Add(uint64(1<<40), uint8(3), false, 1.5)
	f.Add(uint64(9), uint8(4), true, 1e9)
	f.Add(uint64(10), uint8(5), false, 250e3)
	f.Add(uint64(11), uint8(6), true, 300e3)
	f.Add(uint64(12), uint8(6), false, 300e3)
	f.Add(uint64(13), uint8(6), true, 0.25)
	f.Fuzz(func(t *testing.T, seed uint64, mutation uint8, park bool, rate float64) {
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 || rate > 1e12 {
			rate = 100e3
		}
		base := quickNode(0)
		base.Seed = seed
		mk := func() runner.TimelineSpec {
			return runner.TimelineSpec{
				Node: base,
				Park: park,
				Intervals: []runner.Interval{
					{Window: 10 * sim.Millisecond, Rate: rate},
					{Window: 5 * sim.Millisecond, Rate: 0},
				},
			}
		}
		key, ok := runner.TimelineKey(mk())
		if !ok {
			t.Fatal("plain config not cacheable")
		}
		if key2, ok2 := runner.TimelineKey(mk()); !ok2 || key2 != key {
			t.Fatal("identical specs did not land in the same class")
		}
		var keys runner.KeyEncoder
		encKey := func(s runner.TimelineSpec) (string, bool) {
			b, ok := keys.AppendTimelineKey(nil, &s.Node, s.Park, s.Intervals)
			return string(b), ok
		}
		if ekey, eok := encKey(mk()); !eok || ekey != key {
			t.Fatal("the reusing encoder keyed a spec unlike TimelineKey")
		}
		mut := mk()
		mut.Intervals = append([]runner.Interval(nil), mut.Intervals...)
		switch mutation % 7 {
		case 0:
			mut.Node.Cores = mut.Node.Defaults().Cores + 1
		case 1:
			if mut.Node.Platform.Name == governor.AW.Name {
				mut.Node.Platform = governor.Baseline
			} else {
				mut.Node.Platform = governor.AW
			}
		case 2:
			mut.Node.Seed = seed + 1
		case 3:
			mut.Park = !mut.Park
		case 4:
			mut.Intervals[0].Rate = rate + 1
		case 5:
			mut.Intervals = mut.Intervals[:1]
		case 6:
			// The profile differs: another built-in, or one field of the
			// same one.
			p := &mut.Node.Profile
			switch seed % 3 {
			case 0:
				*p = workload.Kafka()
			case 1:
				if p.NetworkCV != rate {
					p.NetworkCV = rate
				} else {
					p.NetworkCV++
				}
			case 2:
				p.Service = workload.LogNormalService{MeanTime: p.Service.Mean(), CV: rate}
			}
		}
		mkey, mok := runner.TimelineKey(mut)
		if !mok || mkey == key {
			t.Fatalf("mutation %d did not split the class (ok=%v)", mutation%7, mok)
		}
		if ekey, eok := encKey(mut); !eok || ekey != mkey {
			t.Fatalf("mutation %d: the reusing encoder keyed the mutant unlike TimelineKey", mutation%7)
		}
		if ekey, eok := encKey(mk()); !eok || ekey != key {
			t.Fatalf("mutation %d: the reusing encoder keyed the base spec unlike TimelineKey after the mutant", mutation%7)
		}
		cat := mk()
		cat.Node.Catalog = cstate.EPYC()
		if _, ok := runner.TimelineKey(cat); ok {
			t.Fatal("custom-catalog node claimed a class key")
		}
		if _, ok := encKey(cat); ok {
			t.Fatal("custom-catalog node claimed a class key from the reusing encoder")
		}
	})
}
