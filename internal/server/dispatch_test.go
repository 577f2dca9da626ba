package server

import (
	"math"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// --- Dispatch policy behavior ---------------------------------------------

func dispatchCfg(policy string, rate float64) Config {
	cfg := quickCfg(governor.Baseline, rate)
	cfg.Dispatch = policy
	return cfg
}

func TestDispatchPoliciesDeterministic(t *testing.T) {
	for _, policy := range DispatchPolicies() {
		a := run(t, dispatchCfg(policy, 200e3))
		b := run(t, dispatchCfg(policy, 200e3))
		if a.AvgCorePowerW != b.AvgCorePowerW || a.Server.P99US != b.Server.P99US ||
			a.Residency != b.Residency || a.MaxQueueDepth != b.MaxQueueDepth {
			t.Errorf("%s: same seed produced different results", policy)
		}
	}
}

func TestDispatchPoliciesDistinct(t *testing.T) {
	// The four policies must actually behave differently: compare the
	// residency/latency signature of each pair at a mid load point.
	results := make(map[string]Result)
	for _, policy := range DispatchPolicies() {
		results[policy] = run(t, dispatchCfg(policy, 200e3))
	}
	policies := DispatchPolicies()
	for i := 0; i < len(policies); i++ {
		for j := i + 1; j < len(policies); j++ {
			a, b := results[policies[i]], results[policies[j]]
			if a.Residency == b.Residency && a.Server.P99US == b.Server.P99US {
				t.Errorf("%s and %s produced identical results", policies[i], policies[j])
			}
		}
	}
}

func TestLeastLoadedBoundsQueueDepth(t *testing.T) {
	// Join-shortest-queue never builds a deeper backlog than blind
	// round-robin under the same arrivals.
	rr := run(t, dispatchCfg(DispatchRoundRobin, 500e3))
	ll := run(t, dispatchCfg(DispatchLeastLoaded, 500e3))
	if ll.MaxQueueDepth > rr.MaxQueueDepth {
		t.Errorf("least-loaded max queue %d > round-robin %d",
			ll.MaxQueueDepth, rr.MaxQueueDepth)
	}
	if ll.MaxQueueDepth <= 0 {
		t.Error("least-loaded recorded no queue depth")
	}
}

func TestPackedConsolidatesLoad(t *testing.T) {
	// Packing must skew busy time onto low-numbered cores: core 0 burns
	// clearly more power than the last core, and the last core reaches
	// deeper idle states than it does under round-robin.
	packed := run(t, dispatchCfg(DispatchPacked, 100e3))
	rr := run(t, dispatchCfg(DispatchRoundRobin, 100e3))

	first, last := packed.PerCore[0], packed.PerCore[len(packed.PerCore)-1]
	if first.AvgPowerW < 2*last.AvgPowerW {
		t.Errorf("packed dispatch not consolidating: core0 %.3fW vs last %.3fW",
			first.AvgPowerW, last.AvgPowerW)
	}
	deep := func(cs CoreStats) float64 {
		return cs.Residency[cstate.C1E] + cs.Residency[cstate.C6] +
			cs.Residency[cstate.C6A] + cs.Residency[cstate.C6AE]
	}
	rrLast := rr.PerCore[len(rr.PerCore)-1]
	if deep(last) <= deep(rrLast) {
		t.Errorf("packed last core deep residency %.3f not above round-robin %.3f",
			deep(last), deep(rrLast))
	}
	// Consolidation pays for power with queueing tail.
	if packed.Server.P99US <= rr.Server.P99US {
		t.Errorf("packed p99 %.1fus not above round-robin %.1fus",
			packed.Server.P99US, rr.Server.P99US)
	}
}

func TestRandomDispatchSpreadsLoad(t *testing.T) {
	res := run(t, dispatchCfg(DispatchRandom, 300e3))
	// Every core must have seen work (uniform random over 150ms windows).
	for _, cs := range res.PerCore {
		if cs.Residency[cstate.C0] <= 0 {
			t.Fatalf("core %d saw no work under random dispatch", cs.Core)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	cfg := dispatchCfg("fifo", 100e3)
	if _, err := RunConfig(cfg); err == nil {
		t.Fatal("unknown dispatch policy accepted")
	}
	lg := quickCfg(governor.Baseline, 100e3)
	lg.LoadGen = "replay"
	if _, err := RunConfig(lg); err == nil {
		t.Fatal("unknown load generator accepted")
	}
}

// --- Load generators -------------------------------------------------------

func TestBurstyLoadGen(t *testing.T) {
	cfg := quickCfg(governor.Baseline, 100e3)
	cfg.LoadGen = LoadBursty
	bursty := run(t, cfg)
	open := run(t, quickCfg(governor.Baseline, 100e3))

	// The long-run average rate is preserved (ON/OFF duty scaling).
	if math.Abs(bursty.CompletedPerSec-100e3)/100e3 > 0.15 {
		t.Errorf("bursty throughput %.0f, want ~100K", bursty.CompletedPerSec)
	}
	// Determinism.
	again := run(t, cfg)
	if bursty.AvgCorePowerW != again.AvgCorePowerW || bursty.Residency != again.Residency {
		t.Error("bursty generator not deterministic")
	}
	// Bursts queue: the tail must be clearly worse than open-loop.
	if bursty.Server.P99US <= open.Server.P99US {
		t.Errorf("bursty p99 %.1fus not above open-loop %.1fus",
			bursty.Server.P99US, open.Server.P99US)
	}
}

func TestClosedLoopViaLoadGenName(t *testing.T) {
	cfg := quickCfg(governor.Baseline, 0)
	cfg.LoadGen = LoadClosedLoop
	cfg.ClosedLoopConnections = 50
	res := run(t, cfg)
	if res.CompletedPerSec <= 0 {
		t.Fatal("closed loop completed nothing")
	}
	// Selecting closed-loop without connections is rejected.
	bad := quickCfg(governor.Baseline, 0)
	bad.LoadGen = LoadClosedLoop
	if _, err := RunConfig(bad); err == nil {
		t.Fatal("closed-loop with zero connections accepted")
	}
}

// --- Round-robin regression goldens ---------------------------------------

// golden holds Result values recorded from the pre-refactor simulator
// (the monolithic round-robin Sim) for the paper's named configurations:
// Memcached, 150ms window, 20ms warmup, seed 42. The decomposed
// subsystems must reproduce these bit-for-bit — any drift means the
// refactor changed model behavior, not just structure.
type golden struct {
	platform      governor.Config
	rate          float64
	avgCoreW      float64
	pkgW          float64
	energyJ       float64
	completed     float64
	serverAvgUS   float64
	serverP99US   float64
	e2eAvgUS      float64
	e2eP99US      float64
	residency     [cstate.NumStates]float64
	transitions   [cstate.NumStates]float64
	turboFraction float64
}

func TestRoundRobinMatchesSeedGoldens(t *testing.T) {
	goldens := []golden{
		{
			platform: governor.Baseline, rate: 100e3,
			avgCoreW: 1.1045380025599483, pkgW: 52.09076005119897,
			energyJ: 3.313614007679845, completed: 101386.66666666667,
			serverAvgUS: 17.95218621778008, serverP99US: 57.375,
			e2eAvgUS: 134.65889847448761, e2eP99US: 248.5,
			residency:     [cstate.NumStates]float64{0.100526333, 0, 0, 0.899473667, 0, 0},
			transitions:   [cstate.NumStates]float64{118220, 0, 0, 118233.33333333334, 0, 0},
			turboFraction: 1,
		},
		{
			platform: governor.AW, rate: 100e3,
			avgCoreW: 0.5176733256486127, pkgW: 40.353466512972254,
			energyJ: 1.5530199769458382, completed: 101386.66666666667,
			serverAvgUS: 17.995664058390336, serverP99US: 57.625,
			e2eAvgUS: 134.70237631509735, e2eP99US: 248.5,
			residency:     [cstate.NumStates]float64{0.10073905533333333, 0, 0, 0, 0.8992609446666666, 0},
			transitions:   [cstate.NumStates]float64{118200, 0, 0, 0, 118213.33333333334, 0},
			turboFraction: 1,
		},
		{
			platform: governor.TC6ANoC6NoC1E, rate: 200e3,
			avgCoreW: 0.8404972503892612, pkgW: 46.809945007785224,
			energyJ: 2.5214917511677837, completed: 201493.33333333334,
			serverAvgUS: 10.173026766807757, serverP99US: 53.125,
			e2eAvgUS: 127.09207987030268, e2eP99US: 239.5,
			residency:     [cstate.NumStates]float64{0.10213853133333334, 0, 0.8978614686666667, 0, 0, 0},
			transitions:   [cstate.NumStates]float64{217966.6666666667, 0, 217993.33333333334, 0, 0, 0},
			turboFraction: 1,
		},
	}
	for _, g := range goldens {
		res := run(t, Config{
			Platform:   g.platform,
			Profile:    workload.Memcached(),
			RatePerSec: g.rate,
			Duration:   150 * sim.Millisecond,
			Warmup:     20 * sim.Millisecond,
			Seed:       42,
		})
		check := func(field string, got, want float64) {
			if got != want {
				t.Errorf("%s @ %.0f: %s = %v, want %v (seed golden)",
					g.platform.Name, g.rate, field, got, want)
			}
		}
		check("AvgCorePowerW", res.AvgCorePowerW, g.avgCoreW)
		check("PackagePowerW", res.PackagePowerW, g.pkgW)
		check("EnergyJ", res.EnergyJ, g.energyJ)
		check("CompletedPerSec", res.CompletedPerSec, g.completed)
		check("Server.AvgUS", res.Server.AvgUS, g.serverAvgUS)
		check("Server.P99US", res.Server.P99US, g.serverP99US)
		check("EndToEnd.AvgUS", res.EndToEnd.AvgUS, g.e2eAvgUS)
		check("EndToEnd.P99US", res.EndToEnd.P99US, g.e2eP99US)
		check("TurboFraction", res.TurboFraction, g.turboFraction)
		if res.Residency != g.residency {
			t.Errorf("%s @ %.0f: Residency = %v, want %v",
				g.platform.Name, g.rate, res.Residency, g.residency)
		}
		if res.TransitionsPerSec != g.transitions {
			t.Errorf("%s @ %.0f: TransitionsPerSec = %v, want %v",
				g.platform.Name, g.rate, res.TransitionsPerSec, g.transitions)
		}
	}
}
