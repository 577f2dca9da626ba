package agilewatts

import (
	"fmt"

	"repro/internal/scenariofile"
	"repro/internal/sim"
)

// ScenarioFile is the decoded form of a declarative scenario file: a
// JSON document describing one time-varying fleet simulation end to end
// (schedule, fleet, engine, elasticity, faults). See LoadScenarioFile.
type ScenarioFile = scenariofile.File

// LoadScenarioFile reads a declarative scenario file and maps it onto a
// ScenarioRun. Decoding is strict (unknown fields are errors); all
// semantic validation happens when the run executes, through the same
// Normalize pass RunScenario and ValidateScenario share, so a bad file
// fails with exactly the error a bad programmatic config would.
func LoadScenarioFile(path string) (ScenarioRun, error) {
	f, err := scenariofile.Load(path)
	if err != nil {
		return ScenarioRun{}, err
	}
	return ScenarioRunFromFile(f)
}

// ParseScenarioFile decodes a scenario document from memory and maps it
// onto a ScenarioRun (the in-memory form of LoadScenarioFile).
func ParseScenarioFile(data []byte) (ScenarioRun, error) {
	f, err := scenariofile.Parse(data)
	if err != nil {
		return ScenarioRun{}, err
	}
	return ScenarioRunFromFile(f)
}

// ms converts schedule-clock milliseconds to a Duration.
func ms(v float64) Duration { return sim.Time(v * 1e6) }

// ScenarioRunFromFile maps a decoded scenario file onto the
// programmatic run description. Name lookups that the file format
// delegates to the API (platform configuration, service profile,
// explicit phase assembly) resolve here; everything else maps
// field-for-field and validates inside RunScenario.
func ScenarioRunFromFile(f ScenarioFile) (ScenarioRun, error) {
	r := ScenarioRun{
		ClusterRun: ClusterRun{
			ServiceRun: ServiceRun{
				RateQPS:  f.Schedule.BaseQPS,
				WarmupNS: ms(f.Fleet.WarmupMS),
				Seed:     f.Fleet.Seed,
			},
			Nodes:           f.Fleet.Nodes,
			ClusterDispatch: f.Fleet.Dispatch,
			TargetUtil:      f.Fleet.TargetUtil,
			ParkDrained:     f.Fleet.ParkDrained,
			SharedSeeds:     f.Fleet.SharedSeeds,
		},
		Scenario: f.Schedule.Shape,
		TotalNS:  ms(f.Schedule.TotalMS),
		EpochNS:  ms(f.EpochMS),
		Execution: ScenarioExecution{
			Replicas:     f.Execution.Replicas,
			CompactNodes: f.Execution.CompactNodes,
		},
		Elasticity: ScenarioElasticity{
			Controller: ControllerSpec{
				Name:       f.Elasticity.Controller.Name,
				UpUtil:     f.Elasticity.Controller.UpUtil,
				DownUtil:   f.Elasticity.Controller.DownUtil,
				TargetUtil: f.Elasticity.Controller.TargetUtil,
				Cooldown:   f.Elasticity.Controller.Cooldown,
				Alpha:      f.Elasticity.Controller.Alpha,
			},
		},
		Faults: FaultSpec{
			RestartLatency: ms(f.Faults.RestartLatencyMS),
			RestartPowerW:  f.Faults.RestartPowerW,
			RestartFree:    f.Faults.RestartFree,
		},
		Overload: OverloadSpec{
			Policy:        f.Overload.Policy,
			MaxUtil:       f.Overload.MaxUtil,
			MaxBacklogSec: f.Overload.MaxBacklogSec,
		},
	}
	if f.Fleet.Platform != "" {
		cfg, err := ConfigByName(f.Fleet.Platform)
		if err != nil {
			return ScenarioRun{}, fmt.Errorf("scenariofile: %w", err)
		}
		r.Platform = cfg
	}
	if f.Fleet.Service != "" {
		prof, err := ServiceByName(f.Fleet.Service)
		if err != nil {
			return ScenarioRun{}, fmt.Errorf("scenariofile: %w", err)
		}
		r.Service = prof
	}
	if len(f.Schedule.Phases) > 0 {
		phases := make([]Phase, len(f.Schedule.Phases))
		for i, p := range f.Schedule.Phases {
			phases[i] = Phase{
				Name:      p.Name,
				Duration:  ms(p.DurationMS),
				StartRate: p.StartQPS,
				EndRate:   p.EndQPS,
			}
		}
		name := f.Name
		if name == "" {
			name = "file"
		}
		sched, err := NewSchedule(name, phases...)
		if err != nil {
			return ScenarioRun{}, err
		}
		r.Schedule = sched
	}
	for _, nf := range f.Faults.Nodes {
		r.Faults.Nodes = append(r.Faults.Nodes, NodeFault{
			Node:   nf.Node,
			Kind:   nf.Kind,
			Start:  ms(nf.StartMS),
			End:    ms(nf.EndMS),
			Factor: nf.Factor,
		})
	}
	if c := f.Faults.Correlated; c != (scenariofile.CorrelatedSpec{}) {
		r.Faults.Correlated = CorrelatedFaults{
			Kind:        c.Kind,
			GroupSize:   c.GroupSize,
			Probability: c.Probability,
			Duration:    ms(c.DurationMS),
			Factor:      c.Factor,
			Seed:        c.Seed,
		}
	}
	return r, nil
}
