package cluster

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
)

// mustSchedule unwraps a schedule constructor; construction in these
// tests is static, so a failure is a test-authoring bug.
func mustSchedule(s *scenario.Schedule, err error) *scenario.Schedule {
	if err != nil {
		panic(err)
	}
	return s
}

func runScenario(t *testing.T, c ScenarioConfig) ScenarioResult {
	t.Helper()
	res, err := RunScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDrainedIsNotParkedWithoutParkDrained pins the drained/parked
// distinction: with parking disabled, consolidate still drains nodes
// (Fleet.IdleNodes > 0) but nothing is parked — the timeline, per-epoch
// and per-phase parked counts must all stay zero.
func TestDrainedIsNotParkedWithoutParkDrained(t *testing.T) {
	nodes := Homogeneous(4, quickNode(0))
	sched := mustSchedule(scenario.Constant("steady", 100e3, 100*sim.Millisecond))
	res := runScenario(t, ScenarioConfig{
		Nodes:    nodes,
		Schedule: sched,
		Epoch:    50 * sim.Millisecond,
		Dispatch: DispatchConsolidate,
		// ParkDrained off on purpose.
	})
	for _, ep := range res.Epochs {
		if ep.Fleet.IdleNodes == 0 {
			t.Fatalf("epoch %d: expected drained nodes under consolidate at light load", ep.Epoch)
		}
		if ep.Parked != 0 {
			t.Errorf("epoch %d: %d nodes reported parked with ParkDrained off", ep.Epoch, ep.Parked)
		}
	}
	for _, n := range res.ParkedTimeline {
		if n != 0 {
			t.Errorf("parked timeline %v non-zero with ParkDrained off", res.ParkedTimeline)
		}
	}
	for _, p := range res.Phases {
		if p.AvgParkedNodes != 0 {
			t.Errorf("phase %s AvgParkedNodes %v with ParkDrained off", p.Phase, p.AvgParkedNodes)
		}
	}
	if res.Unparks != 0 {
		t.Errorf("unparks %d with ParkDrained off", res.Unparks)
	}
}

func TestScenarioDeterministic(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	sched := mustSchedule(scenario.ByName(scenario.NameRamp, 300e3, 100*sim.Millisecond))
	cfg := ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 25 * sim.Millisecond}
	a := runScenario(t, cfg)
	b := runScenario(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Error("scenario run not deterministic")
	}
	// Distinct epochs see distinct randomness: the per-epoch fleet
	// results of equal-rate epochs must not be bit-identical copies.
	if len(a.Epochs) != 4 {
		t.Fatalf("epochs = %d", len(a.Epochs))
	}
}

func TestScenarioEpochPartitioning(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	total := 100 * sim.Millisecond
	sched := mustSchedule(scenario.Constant("steady", 100e3, total))
	// A 30ms epoch over a 100ms schedule yields 30/30/30/10 windows.
	res := runScenario(t, ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 30 * sim.Millisecond})
	if len(res.Epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(res.Epochs))
	}
	last := res.Epochs[3]
	if last.End != total || last.End-last.Start != 10*sim.Millisecond {
		t.Errorf("tail epoch window [%d,%d), want 10ms ending at %d", last.Start, last.End, total)
	}
	for _, ep := range res.Epochs {
		if math.Abs(ep.RateQPS-100e3) > 1e-6 {
			t.Errorf("epoch %d rate %v, want 100000", ep.Epoch, ep.RateQPS)
		}
	}
	// Epoch larger than the schedule clamps to one full-length epoch.
	res2 := runScenario(t, ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: sim.Second})
	if len(res2.Epochs) != 1 || res2.Epochs[0].End != total {
		t.Errorf("oversized epoch not clamped: %+v", res2.Epochs)
	}
}

func TestScenarioValidation(t *testing.T) {
	nodes := Homogeneous(1, quickNode(0))
	sched := mustSchedule(scenario.Constant("steady", 1e3, sim.Second))
	if _, err := RunScenario(ScenarioConfig{Nodes: nodes}); err == nil {
		t.Error("nil schedule accepted")
	}
	if _, err := RunScenario(ScenarioConfig{Schedule: sched}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := RunScenario(ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: -1}); err == nil {
		t.Error("negative epoch accepted")
	}
	if _, err := RunScenario(ScenarioConfig{Nodes: nodes, Schedule: sched, Dispatch: "route-66"}); err == nil {
		t.Error("unknown policy accepted")
	}
	closed := quickNode(0)
	closed.ClosedLoopConnections = 8
	closed.LoadGen = "closed-loop"
	if _, err := RunScenario(ScenarioConfig{Nodes: []server.Config{closed}, Schedule: sched}); err == nil {
		t.Error("closed-loop node accepted")
	}
}
