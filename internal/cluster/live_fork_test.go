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

// TestLiveForkMatchesRestoreReference pins cloning forks and decoded
// restores against the replay reference: at every epoch boundary of a
// shared-seed, reactive fleet whose classes split, with a crash, a
// straggler and the queue overload policy, a fresh Fork and RestoreLive
// of the parent's checkpoint must snapshot byte-equal to a fresh Live
// re-stepped through the parent's recorded decisions (replayLive), and
// all three must produce DeepEqual futures under the same
// StepTarget-then-Step sequence.
func TestLiveForkMatchesRestoreReference(t *testing.T) {
	cfg := fuzzLiveScenario()
	parent := mustLive(t, cfg)
	initial, split := len(parent.classes), false
	for !parent.Done() {
		blob := mustSnapshot(t, parent)
		ref := mustLive(t, cfg)
		replayLive(t, ref, parent)
		restored, err := RestoreLive(cfg, blob)
		if err != nil {
			t.Fatalf("epoch %d: %v", parent.Epoch(), err)
		}
		fork := parent.Fork()
		for name, l := range map[string]*Live{"replay": ref, "fork": fork, "restore": restored} {
			if !bytes.Equal(mustSnapshot(t, l), blob) {
				t.Fatalf("epoch %d: the %s's snapshot differs from its parent's", parent.Epoch(), name)
			}
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
		rtel, rres := future(ref)
		for name, l := range map[string]*Live{"fork": fork, "restore": restored} {
			tel, res := future(l)
			if !reflect.DeepEqual(tel, rtel) {
				t.Errorf("epoch %d: %s telemetry diverged from the replay reference\n%s %+v\n ref %+v", parent.Epoch(), name, name, tel, rtel)
			}
			if !reflect.DeepEqual(res, rres) {
				t.Errorf("epoch %d: %s result diverged from the replay reference\n%s %+v\n ref %+v", parent.Epoch(), name, name, res, rres)
			}
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

// BenchmarkLiveStep measures one epoch step of the twin-shaped fleet:
// routing, every class's node interval and the controller's decision,
// averaged over whole days (a finished day is replaced, untimed, by a
// fresh fleet).
func BenchmarkLiveStep(b *testing.B) {
	cfg := twinScenario(256 * sim.Millisecond)
	var l *Live
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if l == nil || l.Done() {
			b.StopTimer()
			var err error
			if l, err = NewLive(cfg); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := l.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreLive measures a checkpoint restore of the twin-shaped
// fleet taken at epoch 120: the checksum, the decode of the recorded
// epochs and measurements, and every class's node rebuilt from its
// config with its warm state decoded over it.
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

// BenchmarkLiveSnapshot measures one fleet checkpoint of the twin-shaped
// fleet after 120 and 240 epochs, reporting the payload size: the
// document carries every class's realized measurements, so it grows
// with history while the warm node state does not.
func BenchmarkLiveSnapshot(b *testing.B) {
	for _, history := range []int{120, 240} {
		b.Run(fmt.Sprintf("twin-%d", history), func(b *testing.B) {
			l, err := NewLive(twinScenario(256 * sim.Millisecond))
			if err != nil {
				b.Fatal(err)
			}
			for l.Epoch() < history {
				if _, err := l.Step(); err != nil {
					b.Fatal(err)
				}
			}
			var size int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap, err := l.Snapshot()
				if err != nil {
					b.Fatal(err)
				}
				size = len(snap)
			}
			b.ReportMetric(float64(size), "bytes")
		})
	}
}
