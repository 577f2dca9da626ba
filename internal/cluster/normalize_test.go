package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestNormalizeRejectsInvalidConfigs is the single-path validation
// table: every invalid scenario configuration, each rejected with the
// same error whether the caller goes through Validate, RunScenario or a
// CLI — all of them are Normalize.
func TestNormalizeRejectsInvalidConfigs(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	sched := mustSchedule(scenario.Constant("steady", 100e3, 50*sim.Millisecond))
	valid := ScenarioConfig{Nodes: nodes, Schedule: sched, Epoch: 10 * sim.Millisecond}
	cases := []struct {
		name string
		mut  func(*ScenarioConfig)
		want string // substring of the error
	}{
		{"nil schedule", func(c *ScenarioConfig) { c.Schedule = nil }, "needs a schedule"},
		{"negative epoch", func(c *ScenarioConfig) { c.Epoch = -1 }, "negative epoch"},
		{"negative replicas", func(c *ScenarioConfig) { c.Replicas = -1 }, "negative replicas"},
		{"replicas exceed seed plane", func(c *ScenarioConfig) { c.Replicas = xrand.MaxReplicas }, "seed plane"},
		{"unknown controller", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: "psychic"}
		}, "unknown controller"},
		{"inverted deadband", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerReactive, DownUtil: 0.8, UpUtil: 0.5}
		}, "deadband"},
		{"deadband above one", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerReactive, UpUtil: 1.5}
		}, "deadband"},
		{"controller target util above one", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerReactive, TargetUtil: 1.5}
		}, "target utilization"},
		{"negative cooldown", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerReactive, Cooldown: -1}
		}, "cooldown"},
		{"alpha above one", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerPredictive, Alpha: 1.5}
		}, "alpha"},
		{"no nodes", func(c *ScenarioConfig) { c.Nodes = nil }, ""},
		{"unknown dispatch", func(c *ScenarioConfig) { c.Dispatch = "psychic" }, "dispatch"},
		{"negative target util", func(c *ScenarioConfig) { c.TargetUtil = -0.5 }, ""},
		{"unknown fault kind", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: "gremlin", Start: 0, End: 1}}
		}, "unknown kind"},
		{"crash with factor", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: FaultCrash, Start: 0, End: 1, Factor: 2}}
		}, "takes no factor"},
		{"straggler factor not above one", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: FaultStraggler, Start: 0, End: 1, Factor: 1}}
		}, "must be a finite value > 1"},
		{"straggler factor NaN", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: FaultStraggler, Start: 0, End: 1, Factor: math.NaN()}}
		}, "must be a finite value > 1"},
		{"thermal cap out of range", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: FaultThermal, Start: 0, End: 1, Factor: 1}}
		}, "outside [0, 1)"},
		{"fault node outside fleet", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 2, Kind: FaultCrash, Start: 0, End: 1}}
		}, "outside the fleet"},
		{"inverted fault window", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{{Node: 0, Kind: FaultCrash, Start: 5, End: 5}}
		}, "invalid window"},
		{"overlapping fault windows", func(c *ScenarioConfig) {
			c.Faults.Nodes = []NodeFault{
				{Node: 0, Kind: FaultCrash, Start: 0, End: 10},
				{Node: 0, Kind: FaultStraggler, Start: 5, End: 15, Factor: 2},
			}
		}, "overlap on node 0"},
		{"correlated group too large", func(c *ScenarioConfig) {
			c.Faults.Correlated = CorrelatedFaults{Kind: FaultCrash, GroupSize: 3, Probability: 0.5, Duration: 1}
		}, "group size"},
		{"correlated probability out of range", func(c *ScenarioConfig) {
			c.Faults.Correlated = CorrelatedFaults{Kind: FaultCrash, GroupSize: 1, Probability: 1.5, Duration: 1}
		}, "probability"},
		{"correlated probability NaN", func(c *ScenarioConfig) {
			c.Faults.Correlated = CorrelatedFaults{Kind: FaultCrash, GroupSize: 1, Probability: math.NaN(), Duration: 1}
		}, "probability"},
		{"correlated non-positive duration", func(c *ScenarioConfig) {
			c.Faults.Correlated = CorrelatedFaults{Kind: FaultCrash, GroupSize: 1, Probability: 0.5}
		}, "non-positive duration"},
		{"negative restart latency", func(c *ScenarioConfig) {
			c.Faults.RestartLatency = -1
		}, "negative restart penalty"},
		{"negative restart power", func(c *ScenarioConfig) {
			c.Faults.RestartPowerW = -1
		}, "negative restart penalty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			_, nerr := cfg.Normalize()
			if nerr == nil {
				t.Fatal("Normalize accepted the invalid config")
			}
			if tc.want != "" && !strings.Contains(nerr.Error(), tc.want) {
				t.Errorf("Normalize error %q does not mention %q", nerr, tc.want)
			}
			// Validate and RunScenario are the same path: identical errors.
			if verr := cfg.Validate(); verr == nil || verr.Error() != nerr.Error() {
				t.Errorf("Validate error %v != Normalize error %v", verr, nerr)
			}
			if _, rerr := RunScenario(cfg); rerr == nil || rerr.Error() != nerr.Error() {
				t.Errorf("RunScenario error %v != Normalize error %v", rerr, nerr)
			}
		})
	}
}

// TestNormalizeResolvesDefaults pins the defaulting half of Normalize:
// every unset knob lands on its documented effective value, and the
// input config is not mutated.
func TestNormalizeResolvesDefaults(t *testing.T) {
	nodes := Homogeneous(2, quickNode(0))
	total := 50 * sim.Millisecond
	cfg := ScenarioConfig{
		Nodes:      nodes,
		Schedule:   mustSchedule(scenario.Constant("steady", 100e3, total)),
		Controller: ControllerSpec{Name: ControllerReactive},
	}
	r, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Dispatch != DispatchSpread {
		t.Errorf("Dispatch = %q, want %q", r.Dispatch, DispatchSpread)
	}
	if r.TargetUtil != defaultTargetUtil {
		t.Errorf("TargetUtil = %g, want %g", r.TargetUtil, defaultTargetUtil)
	}
	if r.Epoch != total {
		t.Errorf("Epoch = %v, want whole schedule %v", r.Epoch, total)
	}
	if r.total != total {
		t.Errorf("total = %v, want %v", r.total, total)
	}
	if r.restartLatency != 10*sim.Millisecond || r.restartPowerW != 35 {
		t.Errorf("restart penalty = %v/%vW, want 10ms/35W", r.restartLatency, r.restartPowerW)
	}
	free := cfg
	free.Faults.RestartFree = true
	free.Faults.RestartLatency = 5 * sim.Millisecond // RestartFree wins
	if fr, err := free.Normalize(); err != nil || fr.restartLatency != 0 || fr.restartPowerW != 0 {
		t.Errorf("RestartFree resolved to %v/%vW (err %v), want 0/0", fr.restartLatency, fr.restartPowerW, err)
	}
	cs := r.Controller
	if cs.UpUtil != 0.75 || cs.DownUtil != 0.40 || cs.TargetUtil != defaultTargetUtil ||
		cs.Cooldown != 2 || cs.Alpha != 0.3 {
		t.Errorf("controller defaults = %+v", cs)
	}
	if cfg.Epoch != 0 || cfg.Dispatch != "" || cfg.Controller.UpUtil != 0 {
		t.Error("Normalize mutated its receiver")
	}
	// An over-long epoch clamps to the schedule.
	cfg.Epoch = 2 * total
	if r, err = cfg.Normalize(); err != nil || r.Epoch != total {
		t.Errorf("over-long epoch resolved to %v (err %v), want %v", r.Epoch, err, total)
	}
}
