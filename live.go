package agilewatts

import (
	"repro/internal/cluster"
	"repro/internal/scenariofile"
	"repro/internal/server"
)

// LiveScenario is a warm fleet scenario stepped one epoch at a time
// under caller control — the interactive form of RunScenario. Step
// advances the controller-driven (or plan-driven) fleet one epoch and
// returns its telemetry; StepTarget forces the next epoch's active-node
// target (the what-if override); Fork copies the fleet into an
// independent alternate future; Snapshot/RestoreLiveScenario checkpoint
// it across processes. A LiveScenario stepped to completion returns the
// exact ScenarioResult RunScenario computes for the same description.
type LiveScenario = cluster.Live

// NewLiveScenario builds the steppable fleet for the run description.
// The description is mapped and validated exactly as RunScenario maps
// it, so any description RunScenario accepts steps identically here.
func NewLiveScenario(r ScenarioRun) (*LiveScenario, error) {
	cfg, err := scenarioConfig(r)
	if err != nil {
		return nil, err
	}
	return cluster.NewLive(cfg)
}

// RestoreLiveScenario rebuilds a fleet checkpoint taken by
// LiveScenario.Snapshot. The run description must be the one the
// checkpoint was taken under — the snapshot carries the fleet's
// identity and the restore verifies it. The checkpoint's checksum is
// checked first; then every node is rebuilt from its description and
// its warm state decoded over it, so a restore takes time in the
// fleet's state, not in the epochs already stepped.
func RestoreLiveScenario(r ScenarioRun, data []byte) (*LiveScenario, error) {
	cfg, err := scenarioConfig(r)
	if err != nil {
		return nil, err
	}
	return cluster.RestoreLive(cfg, data)
}

// RestoreServiceInstance rebuilds a resumable single-server simulation
// from a ServiceInstance.Snapshot payload: checksum, strict decode of
// the construction config, and the warm state (event queue, C-state
// machines, request rings, RNG streams, collector) decoded over a
// freshly built instance. Nothing is re-simulated.
func RestoreServiceInstance(data []byte) (*ServiceInstance, error) {
	return server.Restore(data)
}

// LoadScenarioFiles reads a scenario file holding one or more
// concatenated scenario documents and returns them all, in file order.
// Decoding is as strict as LoadScenarioFile's and duplicate scenario
// names are rejected. Map a chosen document onto a run description with
// ScenarioRunFromFile.
func LoadScenarioFiles(path string) ([]ScenarioFile, error) {
	return scenariofile.LoadAll(path)
}
