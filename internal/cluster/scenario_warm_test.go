package cluster

import (
	"reflect"
	"testing"

	"repro/internal/cstate"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

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

// referencePlanRates is the per-node rate plan an open-loop run must
// route, computed up front the way a precomputed plan would be and
// without the engine's step path: every epoch's offered rate is
// partitioned over its up nodes, then admission runs in epoch order and
// only the epochs it clipped are re-partitioned at the admitted rate.
func referencePlanRates(p scenarioPlan) [][]float64 {
	adm := p.c.newAdmission()
	rates := make([][]float64, len(p.plan))
	for e, pw := range p.plan {
		var up []int
		var upNodes []server.Config
		for i := range p.c.Nodes {
			if p.faults == nil || !p.faults[e][i].Down {
				up = append(up, i)
				upNodes = append(upNodes, p.c.Nodes[i])
			}
		}
		partition := func(rate float64) []float64 {
			out := make([]float64, len(p.c.Nodes))
			if len(up) == 0 {
				return out
			}
			sub := p.part(upNodes, rate, p.c.TargetUtil)
			for j, i := range up {
				out[i] = sub[j]
			}
			return out
		}
		rates[e] = partition(pw.rate)
		if adm != nil {
			capacity := AdmissionCapacityQPS(upNodes, p.c.Overload.MaxUtil)
			if admitted, _ := adm.admit(pw.rate, capacity, float64(pw.end-pw.start)/1e9); admitted != pw.rate {
				rates[e] = partition(admitted)
			}
		}
	}
	return rates
}

// TestOpenLoopMatchesPerNodeTimelines checks open-loop runs against a
// reference that shares no code with the class machinery: every node's
// own un-collapsed timeline, built from referencePlanRates and the
// fault rows and run alone on a fresh runner. Each epoch's expanded node
// result must equal that reference bit for bit, whatever classes the
// run collapsed the node into and however those split mid-run. The
// fleets cover distinct seeds, shared seeds that split under
// consolidation and parking, a crash and a straggler among shared
// seeds (the straggler differs from its class mates only by its fault),
// and overload shedding. The one-epoch cases are static fleet runs —
// a constant schedule in one epoch — under every dispatch policy with
// parking on and off; consolidate at this load drains two of the three
// nodes, so with parking they are parked from their first interval.
func TestOpenLoopMatchesPerNodeTimelines(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	total := 120 * sim.Millisecond
	diurnal := mustSchedule(scenario.Diurnal(2e6, 0.6, total, 6))
	static := quickNode(0)
	steady := mustSchedule(scenario.Constant("steady", 240e3, static.Duration))
	oneEpoch := func(dispatch string, park bool) ScenarioConfig {
		return ScenarioConfig{Nodes: Homogeneous(3, static), Schedule: steady, Dispatch: dispatch, ParkDrained: park}
	}
	cases := []struct {
		name string
		cfg  ScenarioConfig
		// minClasses and maxClasses bound the collapse, so each fleet
		// exercises the shape it is named for.
		minClasses, maxClasses int
		// parksFirst requires a node parked in the first epoch.
		parksFirst bool
	}{
		{"spread-distinct-seeds", ScenarioConfig{
			Nodes: Homogeneous(4, node), Schedule: diurnal, Epoch: total / 6,
			Dispatch: DispatchSpread,
		}, 4, 4, false},
		{"consolidate-park-shared-seeds", ScenarioConfig{
			Nodes: sharedFleet(8, node), Schedule: diurnal, Epoch: total / 6,
			Dispatch: DispatchConsolidate, ParkDrained: true,
		}, 2, 7, false},
		{"crash-straggler-shared-seeds", ScenarioConfig{
			Nodes: sharedFleet(4, node), Schedule: diurnal, Epoch: total / 6,
			Dispatch: DispatchSpread, ParkDrained: true,
			Faults: FaultSpec{Nodes: []NodeFault{
				{Node: 1, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond},
				{Node: 2, Kind: FaultStraggler, Start: 20 * sim.Millisecond, End: 60 * sim.Millisecond, Factor: 3},
			}},
		}, 3, 3, false},
		{"overload-shed", ScenarioConfig{
			Nodes:    Homogeneous(4, node),
			Schedule: mustSchedule(scenario.Spike(4e6, 5, 80*sim.Millisecond, 20*sim.Millisecond, 40*sim.Millisecond)),
			Epoch:    20 * sim.Millisecond, Dispatch: DispatchConsolidate, ParkDrained: true,
			Overload: OverloadSpec{Policy: OverloadShed},
		}, 4, 4, false},
		{"one-epoch-spread", oneEpoch(DispatchSpread, false), 3, 3, false},
		{"one-epoch-spread-park", oneEpoch(DispatchSpread, true), 3, 3, false},
		{"one-epoch-least-loaded", oneEpoch(DispatchLeastLoaded, false), 3, 3, false},
		{"one-epoch-least-loaded-park", oneEpoch(DispatchLeastLoaded, true), 3, 3, false},
		{"one-epoch-consolidate", oneEpoch(DispatchConsolidate, false), 3, 3, false},
		{"one-epoch-consolidate-park", oneEpoch(DispatchConsolidate, true), 3, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runScenario(t, tc.cfg)
			if res.Classes < tc.minClasses || res.Classes > tc.maxClasses {
				t.Fatalf("%d classes, want %d..%d", res.Classes, tc.minClasses, tc.maxClasses)
			}
			p, err := newScenarioPlan(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Epochs) != len(p.plan) {
				t.Fatalf("%d epochs, plan has %d", len(res.Epochs), len(p.plan))
			}
			if tc.cfg.Overload.Policy != "" && res.SaturatedEpochs == 0 {
				t.Fatal("overload fixture never saturated")
			}
			if tc.parksFirst && res.Epochs[0].Parked == 0 {
				t.Fatal("no node parked in the first epoch")
			}
			rates := referencePlanRates(p)
			for i := range tc.cfg.Nodes {
				spec := runner.TimelineSpec{Node: tc.cfg.Nodes[i], Park: tc.cfg.ParkDrained}
				for e, pw := range p.plan {
					iv := runner.Interval{Window: pw.end - pw.start, Rate: rates[e][i]}
					if p.faults != nil {
						iv.Fault = p.faults[e][i]
					}
					spec.Intervals = append(spec.Intervals, iv)
				}
				want, err := runner.New(0).RunTimeline(spec)
				if err != nil {
					t.Fatal(err)
				}
				for e, ep := range res.Epochs {
					got := ep.Fleet.Nodes[i]
					if got.Node != i || got.RateQPS != spec.Intervals[e].Rate || got.Parked != want[e].Parked {
						t.Fatalf("epoch %d node %d: node/rate/parked %d/%g/%v, want %d/%g/%v",
							e, i, got.Node, got.RateQPS, got.Parked, i, spec.Intervals[e].Rate, want[e].Parked)
					}
					if !reflect.DeepEqual(got.Result, want[e].Result) {
						t.Fatalf("epoch %d node %d diverged from its own timeline run alone\n got %+v\nwant %+v",
							e, i, got.Result, want[e].Result)
					}
				}
			}
		})
	}
}
