package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/governor"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestLiveForkMatchesRestoreReference pins cloning forks against the
// replay reference: at every epoch boundary of a shared-seed, reactive
// fleet whose classes split, with a crash, a straggler and the queue
// overload policy, a fresh Fork must snapshot byte-equal to its parent,
// and the fork and RestoreLive of the parent's snapshot (which rebuilds
// every node by replaying its history) must produce DeepEqual futures
// under the same StepTarget-then-Step sequence.
func TestLiveForkMatchesRestoreReference(t *testing.T) {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	total := 160 * sim.Millisecond
	cfg := ScenarioConfig{
		Nodes:       sharedFleet(4, node),
		Schedule:    mustSchedule(scenario.Diurnal(2e6, 0.6, total, 8)),
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
		Controller:  ControllerSpec{Name: ControllerReactive},
		Faults: FaultSpec{Nodes: []NodeFault{
			{Node: 1, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond},
			{Node: 2, Kind: FaultStraggler, Start: 20 * sim.Millisecond, End: 60 * sim.Millisecond, Factor: 3},
		}},
		Overload: OverloadSpec{Policy: OverloadQueue},
	}
	parent := mustLive(t, cfg)
	initial, split := len(parent.classes), false
	for !parent.Done() {
		blob, err := parent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fork := parent.Fork()
		if fblob, err := fork.Snapshot(); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(fblob, blob) {
			t.Fatalf("epoch %d: a fresh fork's snapshot differs from its parent's", parent.Epoch())
		}
		ref, err := RestoreLive(cfg, blob)
		if err != nil {
			t.Fatalf("epoch %d: %v", parent.Epoch(), err)
		}
		future := func(l *Live) ([]FleetTelemetry, ScenarioResult) {
			tel, err := l.StepTarget(1)
			if err != nil {
				t.Fatal(err)
			}
			tels := []FleetTelemetry{tel}
			for !l.Done() {
				tel, err := l.Step()
				if err != nil {
					t.Fatal(err)
				}
				tels = append(tels, tel)
			}
			return tels, mustResult(t, l)
		}
		ftel, fres := future(fork)
		rtel, rres := future(ref)
		if !reflect.DeepEqual(ftel, rtel) {
			t.Errorf("epoch %d: fork telemetry diverged from the restore reference\n fork %+v\n  ref %+v", parent.Epoch(), ftel, rtel)
		}
		if !reflect.DeepEqual(fres, rres) {
			t.Errorf("epoch %d: fork result diverged from the restore reference\n fork %+v\n  ref %+v", parent.Epoch(), fres, rres)
		}
		if _, err := parent.Step(); err != nil {
			t.Fatal(err)
		}
		split = split || len(parent.classes) > initial
	}
	if !split {
		t.Fatalf("the fleet never split out of its %d initial classes; the scenario no longer exercises split clones", initial)
	}
}

// twinScenario is the awbench twin workload's shape (4 AW nodes,
// consolidate and park, a reactive controller, 1 ms epochs, a crash on
// node 0 from 96 to 120 ms) over a diurnal day of total length.
func twinScenario(total sim.Time) ScenarioConfig {
	node := server.Config{
		Platform: governor.AW,
		Profile:  workload.Memcached(),
		Warmup:   5 * sim.Millisecond,
		Seed:     1,
	}
	sched, err := scenario.Diurnal(1.2e6, 0.6, total, 12)
	if err != nil {
		panic(err)
	}
	return ScenarioConfig{
		Nodes:       Homogeneous(4, node),
		Schedule:    sched,
		Epoch:       sim.Millisecond,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
		Controller:  ControllerSpec{Name: ControllerReactive},
		Faults: FaultSpec{Nodes: []NodeFault{
			{Node: 0, Kind: FaultCrash, Start: 96 * sim.Millisecond, End: 120 * sim.Millisecond},
		}},
	}
}

// BenchmarkLiveFork measures one what-if's fixed cost on the twin-shaped
// fleet: Fork after history-N epochs plus one StepTarget on the fork.
// Fork clones warm node state, so the cost should not grow with N.
func BenchmarkLiveFork(b *testing.B) {
	for _, history := range []int{60, 240} {
		b.Run(fmt.Sprintf("history-%d", history), func(b *testing.B) {
			l, err := NewLive(twinScenario(256 * sim.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			for l.Epoch() < history {
				if _, err := l.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.Fork().StepTarget(2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreLive measures a checkpoint restore of the twin-shaped
// fleet taken at epoch 120: decode, the O(history) deterministic
// re-step, and the per-class snapshot verification.
func BenchmarkRestoreLive(b *testing.B) {
	b.Run("twin-120", func(b *testing.B) {
		cfg := twinScenario(256 * sim.Millisecond)
		l, err := NewLive(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for l.Epoch() < 120 {
			if _, err := l.Step(); err != nil {
				b.Fatal(err)
			}
		}
		snap, err := l.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RestoreLive(cfg, snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}
