package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// overloadScenario builds a 4-node consolidate+park scenario over the
// given schedule — the shared adversarial fixture whose admission
// capacity the tests can compute exactly.
func overloadScenario(sched *scenario.Schedule, epochs int) ScenarioConfig {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	return ScenarioConfig{
		Nodes:       Homogeneous(4, node),
		Schedule:    sched,
		Epoch:       sched.Duration() / sim.Time(epochs),
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	}
}

// fleetAdmissionCapacity is the fixture fleet's exact admission ceiling
// at maxUtil: 4 identical nodes.
func fleetAdmissionCapacity(c ScenarioConfig, maxUtil float64) float64 {
	var sum float64
	for i := range c.Nodes {
		sum += maxUtil * capacityQPS(&c.Nodes[i])
	}
	return sum
}

func TestOverloadNormalize(t *testing.T) {
	base := overloadScenario(mustSchedule(scenario.Constant("steady", 1e6, 80*sim.Millisecond)), 4)
	cases := []struct {
		name string
		mut  func(*ScenarioConfig)
		want string // substring of the error; empty means accept
	}{
		{"zero value accepted", func(c *ScenarioConfig) {}, ""},
		{"shed accepted", func(c *ScenarioConfig) { c.Overload.Policy = OverloadShed }, ""},
		{"unknown policy", func(c *ScenarioConfig) { c.Overload.Policy = "panic" }, "unknown overload policy"},
		{"max util above 1", func(c *ScenarioConfig) {
			c.Overload = OverloadSpec{Policy: OverloadShed, MaxUtil: 1.5}
		}, "max utilization"},
		{"negative max util", func(c *ScenarioConfig) {
			c.Overload = OverloadSpec{Policy: OverloadShed, MaxUtil: -0.5}
		}, "max utilization"},
		{"negative backlog cap", func(c *ScenarioConfig) {
			c.Overload = OverloadSpec{Policy: OverloadQueue, MaxBacklogSec: -1}
		}, "backlog cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.want)
			}
		})
	}

	// Defaults resolve during Normalize, not at the zero value.
	r, err := func() (resolvedScenario, error) {
		cfg := base
		cfg.Overload.Policy = OverloadQueue
		return cfg.Normalize()
	}()
	if err != nil {
		t.Fatal(err)
	}
	if r.Overload.MaxUtil != 0.85 || r.Overload.MaxBacklogSec != 1.0 {
		t.Fatalf("normalized overload = %+v, want MaxUtil 0.85 MaxBacklogSec 1", r.Overload)
	}
}

// TestOverloadBelowCapacityMatchesBaseline pins the admission no-op: a
// run whose offered rate never reaches the admission ceiling must be
// bit-identical to the same run without admission control — for every
// policy — except for the Overload policy echo. This is the stronger
// cousin of the zero-value guarantee the goldens pin.
func TestOverloadBelowCapacityMatchesBaseline(t *testing.T) {
	sched := mustSchedule(scenario.Diurnal(2e6, 0.6, 160*sim.Millisecond, 8))
	base := runScenario(t, overloadScenario(sched, 8))
	for _, policy := range OverloadPolicies() {
		t.Run(policy, func(t *testing.T) {
			cfg := overloadScenario(sched, 8)
			cfg.Overload.Policy = policy
			got := runScenario(t, cfg)
			if got.Overload != policy {
				t.Fatalf("Overload echo = %q, want %q", got.Overload, policy)
			}
			if got.SaturatedEpochs != 0 || got.SheddedRequests != 0 || got.BacklogRate != 0 {
				t.Fatalf("below-capacity run recorded overload: sat=%d shed=%g backlog=%g",
					got.SaturatedEpochs, got.SheddedRequests, got.BacklogRate)
			}
			got.Overload = ""
			if !reflect.DeepEqual(got, base) {
				t.Errorf("below-capacity %s run diverged from the baseline", policy)
			}
		})
	}
}

func TestOverloadShedAccounting(t *testing.T) {
	cfg := overloadScenario(mustSchedule(scenario.Constant("slam", 20e6, 80*sim.Millisecond)), 4)
	cfg.Overload.Policy = OverloadShed
	res := runScenario(t, cfg)

	capQPS := fleetAdmissionCapacity(cfg, 0.85)
	winSec := float64(cfg.Epoch) / 1e9
	if res.SaturatedEpochs != len(res.Epochs) {
		t.Fatalf("SaturatedEpochs = %d, want %d", res.SaturatedEpochs, len(res.Epochs))
	}
	var wantShed float64
	for _, ep := range res.Epochs {
		if !ep.Saturated {
			t.Fatalf("epoch %d not saturated at offered %g vs capacity %g", ep.Epoch, ep.RateQPS, capQPS)
		}
		want := (ep.RateQPS - capQPS) * winSec
		if math.Abs(ep.SheddedRequests-want) > 1e-6*want {
			t.Fatalf("epoch %d shed %g requests, want %g", ep.Epoch, ep.SheddedRequests, want)
		}
		if ep.BacklogRate != 0 {
			t.Fatalf("shed policy queued a backlog: %g", ep.BacklogRate)
		}
		// The routed (admitted) load is the capacity, not the offered rate.
		var routed float64
		for _, n := range ep.Fleet.Nodes {
			routed += n.RateQPS
		}
		if math.Abs(routed-capQPS) > 1e-6*capQPS {
			t.Fatalf("epoch %d routed %g QPS, want the %g capacity", ep.Epoch, routed, capQPS)
		}
		wantShed += want
	}
	if math.Abs(res.SheddedRequests-wantShed) > 1e-6*wantShed {
		t.Fatalf("total shed %g, want %g", res.SheddedRequests, wantShed)
	}
}

func TestOverloadDegradeAdmitsEverything(t *testing.T) {
	sched := mustSchedule(scenario.Constant("slam", 20e6, 80*sim.Millisecond))
	base := runScenario(t, overloadScenario(sched, 4))
	cfg := overloadScenario(sched, 4)
	cfg.Overload.Policy = OverloadDegrade
	res := runScenario(t, cfg)
	if res.SaturatedEpochs != len(res.Epochs) {
		t.Fatalf("SaturatedEpochs = %d, want every epoch", res.SaturatedEpochs)
	}
	if res.SheddedRequests != 0 || res.BacklogRate != 0 {
		t.Fatalf("degrade dropped or queued load: shed=%g backlog=%g", res.SheddedRequests, res.BacklogRate)
	}
	// Degrade only marks the epochs: the simulation itself is the
	// baseline's, bit for bit.
	for e := range res.Epochs {
		got, want := res.Epochs[e], base.Epochs[e]
		got.Saturated = false
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("degrade epoch %d diverged from the baseline", e)
		}
	}
}

func TestOverloadQueueBacklogDrains(t *testing.T) {
	// Two overload epochs at 3x capacity, then six trough epochs with
	// headroom: the backlog must build, then drain to zero well before
	// the run ends, with nothing shed (the cap is a full second of
	// fleet capacity — far above what two epochs can queue).
	probe := overloadScenario(mustSchedule(scenario.Constant("probe", 1, 160*sim.Millisecond)), 8)
	capQPS := fleetAdmissionCapacity(probe, 0.85)
	sched, err := scenario.New("burst",
		scenario.Phase{Name: "slam", Duration: 40 * sim.Millisecond, StartRate: 3 * capQPS, EndRate: 3 * capQPS},
		scenario.Phase{Name: "trough", Duration: 120 * sim.Millisecond, StartRate: 0.1 * capQPS, EndRate: 0.1 * capQPS},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := overloadScenario(sched, 8)
	cfg.Overload.Policy = OverloadQueue
	res := runScenario(t, cfg)

	if res.SheddedRequests != 0 {
		t.Fatalf("queue run shed %g requests with an uncapped backlog", res.SheddedRequests)
	}
	if res.Epochs[0].BacklogRate <= 0 || res.Epochs[1].BacklogRate <= res.Epochs[0].BacklogRate {
		t.Fatalf("backlog did not build over the slam: %g then %g",
			res.Epochs[0].BacklogRate, res.Epochs[1].BacklogRate)
	}
	// A draining epoch routes more than its offered rate.
	drain := res.Epochs[2]
	var routed float64
	for _, n := range drain.Fleet.Nodes {
		routed += n.RateQPS
	}
	if routed <= drain.RateQPS {
		t.Fatalf("drain epoch routed %g QPS against offered %g — backlog not draining", routed, drain.RateQPS)
	}
	if last := res.Epochs[len(res.Epochs)-1]; last.BacklogRate != 0 || last.Saturated {
		t.Fatalf("backlog never drained: final epoch backlog %g saturated %v", last.BacklogRate, last.Saturated)
	}
	if res.BacklogRate != 0 {
		t.Fatalf("ScenarioResult.BacklogRate = %g after a drained run", res.BacklogRate)
	}
	if res.SaturatedEpochs < 2 {
		t.Fatalf("SaturatedEpochs = %d, want at least the two slam epochs", res.SaturatedEpochs)
	}
}

func TestOverloadQueueCapSheds(t *testing.T) {
	cfg := overloadScenario(mustSchedule(scenario.Constant("slam", 20e6, 80*sim.Millisecond)), 4)
	cfg.Overload = OverloadSpec{Policy: OverloadQueue, MaxBacklogSec: 0.01}
	res := runScenario(t, cfg)
	capQPS := fleetAdmissionCapacity(cfg, 0.85)
	maxBacklog := 0.01 * capQPS
	for _, ep := range res.Epochs {
		winSec := float64(ep.End-ep.Start) / 1e9
		if got := ep.BacklogRate * winSec; got > maxBacklog*(1+1e-9) {
			t.Fatalf("epoch %d backlog %g requests exceeds the %g cap", ep.Epoch, got, maxBacklog)
		}
	}
	if res.SheddedRequests <= 0 {
		t.Fatalf("capped queue under constant overload shed nothing")
	}
}

// TestControllerSaturationStability is the anti-windup pin: offered
// load far past total fleet capacity — alone and combined with crash
// faults — must drive every controller to a stable, clamped target
// sequence: no oscillation, no panic, never outside [1, fleet]. The
// exact sequences are pinned so a controller regression that starts
// flapping at saturation fails loudly.
func TestControllerSaturationStability(t *testing.T) {
	crash := FaultSpec{
		Nodes: []NodeFault{
			{Node: 1, Kind: FaultCrash, Start: 20 * sim.Millisecond, End: 60 * sim.Millisecond},
		},
		RestartFree: true,
	}
	cases := []struct {
		name        string
		ctrl        string
		policy      string
		faults      FaultSpec
		wantTargets []int
	}{
		{"oracle-shed", ControllerOracle, OverloadShed, FaultSpec{}, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"reactive-shed", ControllerReactive, OverloadShed, FaultSpec{}, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"reactive-degrade", ControllerReactive, OverloadDegrade, FaultSpec{}, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"predictive-shed", ControllerPredictive, OverloadShed, FaultSpec{}, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"predictive-queue", ControllerPredictive, OverloadQueue, FaultSpec{}, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"reactive-shed-crash", ControllerReactive, OverloadShed, crash, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"predictive-queue-crash", ControllerPredictive, OverloadQueue, crash, []int{4, 4, 4, 4, 4, 4, 4, 4}},
		{"oracle-queue-crash", ControllerOracle, OverloadQueue, crash, []int{4, 3, 3, 4, 4, 4, 4, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := overloadScenario(mustSchedule(scenario.Constant("slam", 25e6, 160*sim.Millisecond)), 8)
			cfg.Controller = ControllerSpec{Name: tc.ctrl}
			cfg.Overload.Policy = tc.policy
			cfg.Faults = tc.faults
			res := runScenario(t, cfg)

			targets := make([]int, len(res.Epochs))
			flips := 0
			dir := 0
			for e, ep := range res.Epochs {
				targets[e] = ep.TargetNodes
				if ep.TargetNodes < 1 || ep.TargetNodes > len(cfg.Nodes) {
					t.Fatalf("epoch %d target %d outside [1, %d]", e, ep.TargetNodes, len(cfg.Nodes))
				}
				if e > 0 {
					switch d := ep.TargetNodes - targets[e-1]; {
					case d > 0:
						if dir < 0 {
							flips++
						}
						dir = 1
					case d < 0:
						if dir > 0 {
							flips++
						}
						dir = -1
					}
				}
			}
			if !reflect.DeepEqual(targets, tc.wantTargets) {
				t.Errorf("target sequence = %v, want %v", targets, tc.wantTargets)
			}
			// One direction reversal is the most a crash window may cause
			// (down on crash, up on recovery); a saturated controller must
			// otherwise never flap.
			if flips > 1 {
				t.Errorf("target sequence %v oscillates (%d direction flips)", targets, flips)
			}
			if res.SaturatedEpochs == 0 {
				t.Errorf("adversarial run never saturated — the fixture is too weak")
			}
		})
	}
}

// TestLiveOverloadMatchesRunScenario extends the Live determinism
// contract to admission control: a live fleet stepped to completion
// under each overload policy (with a controller and a crash fault in
// the mix) reports exactly what the batch path reports.
func TestLiveOverloadMatchesRunScenario(t *testing.T) {
	for _, policy := range OverloadPolicies() {
		t.Run(policy, func(t *testing.T) {
			cfg := overloadScenario(mustSchedule(scenario.Constant("slam", 20e6, 160*sim.Millisecond)), 8)
			cfg.Overload.Policy = policy
			cfg.Controller = ControllerSpec{Name: ControllerReactive}
			cfg.Faults = FaultSpec{
				Nodes: []NodeFault{
					{Node: 2, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond},
				},
			}
			want := runScenario(t, cfg)
			l := mustLive(t, cfg)
			stepAll(t, l)
			got := mustResult(t, l)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("live %s run diverged from RunScenario", policy)
			}
		})
	}
}

// TestLiveOverloadSnapshotRestore checkpoints a queue-policy fleet mid-
// backlog and proves the restored fleet finishes bit-identically: the
// backlog is not serialized — it is rebuilt by the deterministic
// re-step — so this is the pin that the admission state participates in
// the replay contract.
func TestLiveOverloadSnapshotRestore(t *testing.T) {
	probe := overloadScenario(mustSchedule(scenario.Constant("probe", 1, 160*sim.Millisecond)), 8)
	capQPS := fleetAdmissionCapacity(probe, 0.85)
	sched, err := scenario.New("burst",
		scenario.Phase{Name: "slam", Duration: 60 * sim.Millisecond, StartRate: 3 * capQPS, EndRate: 3 * capQPS},
		scenario.Phase{Name: "trough", Duration: 100 * sim.Millisecond, StartRate: 0.2 * capQPS, EndRate: 0.2 * capQPS},
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := overloadScenario(sched, 8)
	cfg.Overload.Policy = OverloadQueue
	cfg.Controller = ControllerSpec{Name: ControllerPredictive}

	ref := mustLive(t, cfg)
	stepAll(t, ref)
	want := mustResult(t, ref)

	l := mustLive(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if tel, ok := l.Telemetry(); !ok || tel.BacklogRate <= 0 {
		t.Fatalf("fixture holds no backlog at the checkpoint (tel %+v)", tel)
	}
	blob, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreLive(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, restored)
	got := mustResult(t, restored)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored queue-policy run diverged from the uninterrupted one")
	}
}

// TestLiveOverloadForkCarriesBacklog forks a queue-policy fleet mid-
// backlog and steps parent and fork through identical futures: the fork
// must have copied the admission state, not share or drop it.
func TestLiveOverloadForkCarriesBacklog(t *testing.T) {
	cfg := overloadScenario(mustSchedule(scenario.Constant("slam", 20e6, 160*sim.Millisecond)), 8)
	cfg.Overload.Policy = OverloadQueue
	cfg.Controller = ControllerSpec{Name: ControllerReactive}
	parent := mustLive(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := parent.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fork := parent.Fork()
	for !parent.Done() {
		pt, err := parent.Step()
		if err != nil {
			t.Fatal(err)
		}
		ft, err := fork.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pt, ft) {
			t.Fatalf("epoch %d: fork telemetry diverged from parent", pt.Epoch)
		}
	}
	pr := mustResult(t, parent)
	fr := mustResult(t, fork)
	if !reflect.DeepEqual(pr, fr) {
		t.Errorf("fork result diverged from parent")
	}
}
