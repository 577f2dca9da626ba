package cluster

import (
	"reflect"
	"testing"

	"repro/internal/cstate"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestWarmOneEpochMatchesStaticRun is the scenario engine's anchor: a
// one-phase constant schedule in a single epoch must reproduce the
// static cluster.Run bit-for-bit — the resumable Instance's first
// interval is the one-shot simulation. Consolidate with ParkDrained,
// the one combination that parks a node at this load, is left out on
// purpose: the scenario simulates the park transition on the running
// instance, while the static run reconfigures the parked node up front
// (park), so the two are different simulations.
func TestWarmOneEpochMatchesStaticRun(t *testing.T) {
	nodes := Homogeneous(3, quickNode(0))
	dur := nodes[0].Duration
	sched := mustSchedule(scenario.Constant("steady", 240e3, dur))
	for _, tc := range []struct {
		dispatch string
		park     bool
	}{
		{DispatchSpread, false},
		{DispatchLeastLoaded, false},
		{DispatchConsolidate, false},
		{DispatchSpread, true},
		{DispatchLeastLoaded, true},
	} {
		static, err := Run(Config{Nodes: nodes, RateQPS: 240e3, Dispatch: tc.dispatch, ParkDrained: tc.park})
		if err != nil {
			t.Fatal(err)
		}
		warm := runScenario(t, ScenarioConfig{
			Nodes: nodes, Schedule: sched, Epoch: dur, Dispatch: tc.dispatch, ParkDrained: tc.park,
		})
		if len(warm.Epochs) != 1 {
			t.Fatalf("%s park=%v: epochs = %d, want 1", tc.dispatch, tc.park, len(warm.Epochs))
		}
		if !reflect.DeepEqual(warm.Epochs[0].Fleet, static) {
			t.Errorf("%s park=%v: one-epoch scenario fleet diverged from static Run\n got %+v\nwant %+v",
				tc.dispatch, tc.park, warm.Epochs[0].Fleet, static)
		}
	}
}

// TestWarmDiurnalConsolidateParksAndUnparksForReal is the warm path's
// headline behavior: over a diurnal day with consolidate+park, the
// parked timeline follows the load, and the park/unpark transitions are
// simulated — no synthetic energy penalty (UnparkEnergyJ stays 0), the
// parked nodes really reach package deep idle, and the epoch that wakes
// a parked node records a wake tail at least the deepest state's exit
// latency.
func TestWarmDiurnalConsolidateParksAndUnparksForReal(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 240 * sim.Millisecond
	sched := mustSchedule(scenario.Diurnal(2e6, 0.6, total, 8))
	res := runScenario(t, ScenarioConfig{
		Nodes:       nodes,
		Schedule:    sched,
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	})
	if len(res.Epochs) != 8 {
		t.Fatalf("epochs = %d, want 8", len(res.Epochs))
	}
	if res.ParkedTimeline[0] <= res.ParkedTimeline[4] {
		t.Errorf("parked timeline flat: trough %d vs peak %d (timeline %v)",
			res.ParkedTimeline[0], res.ParkedTimeline[4], res.ParkedTimeline)
	}
	if res.Unparks == 0 {
		t.Fatal("no unpark transitions over a diurnal day")
	}
	for _, ep := range res.Epochs {
		if ep.UnparkEnergyJ != 0 {
			t.Errorf("epoch %d charged synthetic unpark energy %v on the warm path", ep.Epoch, ep.UnparkEnergyJ)
		}
	}
	// Parked nodes really sit in package deep idle.
	for _, ep := range res.Epochs {
		for _, n := range ep.Fleet.Nodes {
			if n.Parked && n.Result.PkgIdleFraction < 0.5 {
				t.Errorf("epoch %d node %d parked but package-idle fraction %.3f",
					ep.Epoch, n.Node, n.Result.PkgIdleFraction)
			}
		}
	}
	// The epoch that unparks a node pays a real deep-idle exit: the
	// unparked node's max wake latency covers the deepest state's exit
	// flow (C6 for the Baseline menu).
	exitUS := float64(cstate.Skylake().ExitLatency(cstate.C6)) / 1e3
	checked := false
	for e := 1; e < len(res.Epochs); e++ {
		ep := res.Epochs[e]
		if ep.Unparked == 0 {
			continue
		}
		prev := res.Epochs[e-1]
		for i, n := range ep.Fleet.Nodes {
			if prev.Fleet.Nodes[i].Parked && n.RateQPS > 0 {
				checked = true
				if n.Result.Breakdown.Wake.MaxUS < exitUS {
					t.Errorf("epoch %d node %d unparked but max wake %.2fus < C6 exit %.2fus",
						e, i, n.Result.Breakdown.Wake.MaxUS, exitUS)
				}
			}
		}
	}
	if !checked {
		t.Error("no unparked node found to check the exit-latency claim")
	}
	// Trough phase burns less fleet power than the peak phase.
	var trough, peak *PhaseSummary
	for i := range res.Phases {
		p := &res.Phases[i]
		if trough == nil || p.AvgRateQPS < trough.AvgRateQPS {
			trough = p
		}
		if peak == nil || p.AvgRateQPS > peak.AvgRateQPS {
			peak = p
		}
	}
	if trough.AvgFleetPowerW >= peak.AvgFleetPowerW {
		t.Errorf("trough power %v not below peak power %v", trough.AvgFleetPowerW, peak.AvgFleetPowerW)
	}
}

// TestScenarioNodeFailureShortCircuits pins that one broken node fails
// the scenario promptly: the runner cancels outstanding timeline tasks
// instead of simulating the rest of the fleet to completion.
func TestScenarioNodeFailureShortCircuits(t *testing.T) {
	nodes := Homogeneous(8, quickNode(0))
	nodes[0].Cores = -1 // invalid: instance construction fails
	sched := mustSchedule(scenario.Constant("steady", 400e3, 50*sim.Millisecond))
	_, err := RunScenario(ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 10 * sim.Millisecond})
	if err == nil {
		t.Fatal("broken node accepted")
	}
}
