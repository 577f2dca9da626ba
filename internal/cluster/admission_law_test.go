package cluster

import (
	"math"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// checkAdmissionLaw verifies request conservation across the admission
// front door for every epoch of a run's history:
//
//	backlog_in + offered·w = routed·w + shed + backlog_out
//
// where routed is the sum of the per-node routed rates and the backlogs
// are the queued requests at the epoch's start and end, to a relative
// 1e-9. With dark set, epochs without a single up node are exempt: with
// no policy (or degrade) a fully dark epoch loses its load by design.
// It also checks that active, parked and down nodes never overcount the
// fleet.
func checkAdmissionLaw(t *testing.T, tels []FleetTelemetry, dark bool) {
	t.Helper()
	var backlogIn float64
	for _, tel := range tels {
		w := float64(tel.End-tel.Start) / 1e9
		var routed float64
		for _, n := range tel.Nodes {
			routed += n.RateQPS
		}
		backlogOut := tel.BacklogRate * w
		lhs := backlogIn + tel.OfferedQPS*w
		rhs := routed*w + tel.SheddedRequests + backlogOut
		exempt := dark && tel.DownNodes == tel.TotalNodes
		if !exempt && math.Abs(lhs-rhs) > 1e-9*math.Max(math.Abs(lhs), math.Abs(rhs)) {
			t.Fatalf("epoch %d: backlog_in %g + offered %g = %g, but routed %g + shed %g + backlog_out %g = %g",
				tel.Epoch, backlogIn, tel.OfferedQPS*w, lhs, routed*w, tel.SheddedRequests, backlogOut, rhs)
		}
		if got := tel.ActiveNodes + tel.ParkedNodes + tel.DownNodes; got > tel.TotalNodes {
			t.Fatalf("epoch %d: %d active + %d parked + %d down > %d nodes",
				tel.Epoch, tel.ActiveNodes, tel.ParkedNodes, tel.DownNodes, tel.TotalNodes)
		}
		backlogIn = backlogOut
	}
}

// TestForcedThenReplayConservesRequests pins that a forced epoch's
// admission state carries into the unforced epochs after it: a what-if
// that squeezes the fleet to one node queues (or sheds) the excess, and
// the open-loop or oracle epochs that follow admit against that real
// backlog rather than dropping it.
func TestForcedThenReplayConservesRequests(t *testing.T) {
	node := quickNode(0)
	node.Warmup = sim.Millisecond
	nodes := Homogeneous(4, node)
	total := 16 * sim.Millisecond
	rate := 0.9 * AdmissionCapacityQPS(nodes, 0.85)
	for _, ctrl := range []string{"", ControllerOracle} {
		for _, policy := range []string{OverloadQueue, OverloadShed} {
			name := ctrl
			if name == "" {
				name = "open-loop"
			}
			t.Run(name+"/"+policy, func(t *testing.T) {
				l := mustLive(t, ScenarioConfig{
					Nodes:       nodes,
					Schedule:    mustSchedule(scenario.Constant("steady", rate, total)),
					Epoch:       2 * sim.Millisecond,
					Dispatch:    DispatchConsolidate,
					ParkDrained: true,
					Controller:  ControllerSpec{Name: ctrl},
					Overload:    OverloadSpec{Policy: policy},
				})
				for i := 0; i < 2; i++ {
					if _, err := l.Step(); err != nil {
						t.Fatal(err)
					}
				}
				f := l.Fork()
				for i := 0; i < 2; i++ {
					if _, err := f.StepTarget(1); err != nil {
						t.Fatal(err)
					}
				}
				stepAll(t, f)
				tels := f.History()
				if !tels[2].Saturated {
					t.Fatal("the forced one-node epoch did not saturate")
				}
				checkAdmissionLaw(t, tels, false)
			})
		}
	}
}

// FuzzLiveConservation drives small random fleets through random
// sequences of forced and unforced steps on a fork and checks the
// admission law on every epoch: under shed and queue in every epoch,
// under degrade or no policy in every epoch with an up node.
func FuzzLiveConservation(f *testing.F) {
	f.Add(uint8(4), false, uint8(2), uint8(3), uint8(0), false, uint8(0), uint8(180), uint8(2), []byte{3, 3, 0, 0})
	f.Add(uint8(3), true, uint8(0), uint8(1), uint8(1), true, uint8(0x25), uint8(250), uint8(1), []byte{1, 0, 9, 0, 0})
	f.Add(uint8(5), true, uint8(1), uint8(2), uint8(2), true, uint8(0x93), uint8(90), uint8(3), []byte{0, 5, 0, 7})
	f.Add(uint8(2), false, uint8(2), uint8(0), uint8(0), false, uint8(0xC1), uint8(120), uint8(0), []byte{1, 0})
	f.Fuzz(func(t *testing.T, nNodes uint8, shared bool, dispatch, overload, ctrl uint8,
		park bool, crash, load, forkAt uint8, ops []byte) {
		const epochs = 8
		n := 2 + int(nNodes)%5
		node := quickNode(0)
		node.Warmup = sim.Millisecond
		nodes := sharedFleet(n, node)
		if !shared {
			nodes = Homogeneous(n, node)
		}
		policy := []string{"", OverloadShed, OverloadDegrade, OverloadQueue}[int(overload)%4]
		cfg := ScenarioConfig{
			Nodes:       nodes,
			Epoch:       sim.Millisecond,
			Dispatch:    Policies()[int(dispatch)%3],
			ParkDrained: park,
			Controller:  ControllerSpec{Name: []string{"", ControllerOracle, ControllerReactive}[int(ctrl)%3]},
			Overload:    OverloadSpec{Policy: policy},
		}
		// 0.1x to 1.6x of the full fleet's admission capacity, with a
		// spike so consecutive epochs differ.
		base := (0.1 + 1.5*float64(load)/255) * AdmissionCapacityQPS(nodes, 0.85) / 2
		cfg.Schedule = mustSchedule(scenario.Spike(base, 2, epochs*sim.Millisecond, 2*sim.Millisecond, 3*sim.Millisecond))
		// crash: bit 0 enables a crash window, bit 1 widens it to every
		// node (a fully dark epoch), bits 2-4 pick its start epoch and
		// bits 5-6 its length, and the byte picks the node.
		if crash&1 != 0 {
			start := sim.Time(crash>>2&7) * sim.Millisecond
			end := start + sim.Time(1+crash>>5&3)*sim.Millisecond
			for i := 0; i < n; i++ {
				if crash&2 != 0 || i == int(crash)%n {
					cfg.Faults.Nodes = append(cfg.Faults.Nodes, NodeFault{Node: i, Kind: FaultCrash, Start: start, End: end})
				}
			}
		}
		l, err := NewLive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(forkAt)%epochs; i++ {
			if _, err := l.Step(); err != nil {
				t.Fatal(err)
			}
		}
		fk := l.Fork()
		for i := 0; !fk.Done(); i++ {
			// An odd op forces its target (0 clamps to 1, past n to the
			// fleet); an even op or a spent op list steps unforced.
			if i < len(ops) && ops[i]&1 != 0 {
				_, err = fk.StepTarget(int(ops[i]>>1) % (n + 2))
			} else {
				_, err = fk.Step()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		checkAdmissionLaw(t, fk.History(), policy != OverloadShed && policy != OverloadQueue)
	})
}
