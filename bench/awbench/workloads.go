package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	agilewatts "repro"
)

const (
	// twinPath is the checked-in scenario awserved serves; each run
	// serves a copy with the fleet seed replaced by the run's seed.
	twinPath = "bench/workloads/twin.json"
	// digestsPath pins every workload's output digest at defaultSeed.
	digestsPath = "bench/workloads/digests.json"
)

// workload is one set of inputs the benchmark runs. BENCHMARK.json and
// bench/README.md say why each was chosen.
type workload struct{ name string }

var workloads = []workload{{wPaperEval}, {wFleet100K}, {wFleet128}, {wTwin}}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// inputs is what a workload runs, made from the seed alone: experiment
// options for paper-eval, a fleet scenario for the others. twin is the
// seeded twin scenario file.
type inputs struct {
	options agilewatts.Options
	run     agilewatts.ScenarioRun
	twin    string
}

func (w workload) inputs(seed uint64, twin string) (inputs, error) {
	in := inputs{twin: twin}
	var err error
	switch w.name {
	case wPaperEval:
		in.options = agilewatts.QuickOptions()
		in.options.Seed = seed
	case wFleet100K:
		in.run = fleet100K(seed)
	case wFleet128:
		in.run = fleet128(seed)
	case wTwin:
		in.run, err = loadTwin(twin)
	}
	return in, err
}

// fleet100K is BenchmarkRunScenario100K's day through the public API:
// 100K shared-seed nodes under spread dispatch, a 24 x 2 ms diurnal
// schedule, 4 seeded replicas and compact aggregation. The fleet
// collapses to one class plus four replicas, so nearly all the time is
// the O(nodes) plan, keying, classification and aggregation.
func fleet100K(seed uint64) agilewatts.ScenarioRun {
	const nodes = 100_000
	return agilewatts.ScenarioRun{
		ClusterRun: agilewatts.ClusterRun{
			ServiceRun: agilewatts.ServiceRun{
				Platform: agilewatts.Baseline,
				Service:  agilewatts.Memcached(),
				RateQPS:  nodes * 480e3,
				WarmupNS: 10_000_000,
				Seed:     seed,
			},
			Nodes:           nodes,
			ClusterDispatch: agilewatts.ClusterSpread,
			ParkDrained:     true,
			SharedSeeds:     true,
		},
		Scenario:  agilewatts.ScenarioDiurnal,
		TotalNS:   48_000_000,
		EpochNS:   2_000_000,
		Execution: agilewatts.ScenarioExecution{Replicas: 4, CompactNodes: true},
	}
}

// fleet128 is the complement of fleet100K: 128 distinct-seed AW nodes,
// so every node is its own class and the memo is never consulted. A
// 4x spike over a 600K QPS/node base drives unparks and shedding under
// the reactive controller, with node 0 crashed for 10-20 ms and node 1
// a x2 straggler throughout. CompactNodes leaves the per-node detail
// out of the result: with it, the child's peak RSS swung by 15% with
// GC timing around a 10 MB result instead of tracking the simulation.
func fleet128(seed uint64) agilewatts.ScenarioRun {
	const nodes = 128
	return agilewatts.ScenarioRun{
		ClusterRun: agilewatts.ClusterRun{
			ServiceRun: agilewatts.ServiceRun{
				Platform: agilewatts.AW,
				Service:  agilewatts.Memcached(),
				RateQPS:  nodes * 600e3,
				WarmupNS: 10_000_000,
				Seed:     seed,
			},
			Nodes:           nodes,
			ClusterDispatch: agilewatts.ClusterConsolidate,
			ParkDrained:     true,
		},
		Scenario:  agilewatts.ScenarioSpike,
		TotalNS:   48_000_000,
		EpochNS:   2_000_000,
		Execution: agilewatts.ScenarioExecution{CompactNodes: true},
		Elasticity: agilewatts.ScenarioElasticity{
			Controller: agilewatts.ControllerSpec{Name: agilewatts.ControllerReactive},
		},
		Faults: agilewatts.FaultSpec{Nodes: []agilewatts.NodeFault{
			{Node: 0, Kind: agilewatts.FaultCrash, Start: 10_000_000, End: 20_000_000},
			{Node: 1, Kind: agilewatts.FaultStraggler, Start: 0, End: 48_000_000, Factor: 2},
		}},
		Overload: agilewatts.OverloadSpec{Policy: agilewatts.OverloadShed},
	}
}

// writeTwinInput writes the twin scenario with its fleet seed replaced by
// seed into dir, and returns the path. awserved serves this file and the
// in-process reference loads it, so both see the same document.
func writeTwinInput(root, dir string, seed uint64) (string, error) {
	f, err := loadScenario(filepath.Join(root, twinPath))
	if err != nil {
		return "", err
	}
	f.Fleet.Seed = seed
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("twin-seed%d.json", seed))
	return path, os.WriteFile(path, data, 0o644)
}

// loadTwin maps the seeded twin file onto a run description the way
// awserved does.
func loadTwin(path string) (agilewatts.ScenarioRun, error) {
	f, err := loadScenario(path)
	if err != nil {
		return agilewatts.ScenarioRun{}, err
	}
	return agilewatts.ScenarioRunFromFile(f)
}

// loadScenario loads a scenario file that must hold exactly one document.
func loadScenario(path string) (agilewatts.ScenarioFile, error) {
	files, err := agilewatts.LoadScenarioFiles(path)
	if err != nil {
		return agilewatts.ScenarioFile{}, err
	}
	if len(files) != 1 {
		return agilewatts.ScenarioFile{}, fmt.Errorf("%s: want one scenario, have %d", path, len(files))
	}
	return files[0], nil
}
