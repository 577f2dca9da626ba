// Command awsim reproduces the paper's evaluation: it runs any (or all)
// of the simulation-backed experiments and prints the corresponding
// tables/series.
//
// Usage:
//
//	awsim [-quick] [-seed N] [-dispatch POLICY] [-loadgen GEN]
//	      [-nodes N] [-cluster-dispatch POLICY]
//	      [-scenario SHAPE] [-epoch-ms N] [experiment ...]
//
// With no experiment arguments it runs the full evaluation section
// (figures 8-13, table 5, validation). -dispatch and -loadgen override
// the request placement policy and arrival generator for every
// simulation, answering "what if the paper's server didn't round-robin"
// without touching the experiment code. -nodes sizes the fleets of the
// cluster, scenario, faults and overload experiments, and
// -cluster-dispatch picks the cluster and scenario experiments'
// partitioning policy; either is rejected on a run that names none of
// its experiments:
//
//	awsim -nodes 8 -cluster-dispatch consolidate cluster
//
// -scenario and -epoch-ms parameterize the time-varying scenario
// experiment (diurnal day by default), which steps the fleet dispatcher
// every epoch and compares Baseline against AW phase by phase:
//
//	awsim -nodes 8 -scenario diurnal -epoch-ms 30 scenario
//
// -controller routes both fleets through a closed-loop controller
// (oracle, reactive or predictive) that sizes the active set from live
// telemetry instead of routing every epoch across the whole fleet (the
// oracle keeps the whole fleet); -ctrl-up, -ctrl-down and
// -ctrl-cooldown tune the reactive hysteresis. The scenario experiment
// always appends the oracle-vs-reactive-vs-predictive comparison table:
//
//	awsim -nodes 8 -controller reactive -ctrl-cooldown 3 scenario
//
// -overload applies an admission-control policy (shed, degrade or
// queue) to the scenario experiment's fleets when the offered rate
// exceeds the active set's capacity; -overload-max-util and
// -overload-backlog-sec tune the capacity ceiling and the queue bound.
// The dedicated overload experiment compares all three policies on the
// same over-capacity spike:
//
//	awsim -quick -nodes 4 overload
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	agilewatts "repro"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity runs (shorter windows, fewer load points)")
	seed := flag.Uint64("seed", 0, "override experiment seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	dispatch := flag.String("dispatch", "",
		"dispatch policy for all simulations: "+strings.Join(agilewatts.DispatchPolicies(), "|"))
	loadgen := flag.String("loadgen", "",
		"load generator for all simulations: "+strings.Join(agilewatts.LoadGenerators(), "|"))
	connections := flag.Int("connections", 0,
		"closed-loop connection count (required with -loadgen closed-loop)")
	nodes := flag.Int("nodes", 0,
		"fleet size for the cluster, scenario, faults and overload experiments (default 4)")
	clusterDispatch := flag.String("cluster-dispatch", "",
		"cluster load-partitioning policy for the cluster experiment's cost rows and the scenario experiment's fleets: "+
			strings.Join(agilewatts.ClusterPolicies(), "|"))
	scenarioName := flag.String("scenario", "",
		"time-varying load shape for the scenario experiment: "+
			strings.Join(agilewatts.ScenarioNames(), "|"))
	epochMS := flag.Int("epoch-ms", 0,
		"scenario experiment re-dispatch interval in ms (default: schedule/12)")
	replicas := flag.Int("replicas", 0,
		"scenario experiment only: K seeded replicas per timeline equivalence "+
			"class (shared node seeds, 95% CI note on the phase table)")
	controller := flag.String("controller", "",
		"scenario experiment fleet controller (closed-loop, warm path): "+
			strings.Join(agilewatts.FleetControllers(), "|")+" (default: open-loop plan)")
	ctrlUp := flag.Float64("ctrl-up", 0,
		"reactive controller scale-up utilization threshold (default 0.75)")
	ctrlDown := flag.Float64("ctrl-down", 0,
		"reactive controller scale-down utilization threshold (default 0.40)")
	ctrlCooldown := flag.Int("ctrl-cooldown", 0,
		"reactive controller minimum epochs between target changes (default 2)")
	overload := flag.String("overload", "",
		"scenario experiment admission-control policy past fleet capacity: "+
			strings.Join(agilewatts.OverloadPolicies(), "|")+" (default: admit everything)")
	overloadMaxUtil := flag.Float64("overload-max-util", 0,
		"per-node utilization the admission capacity is computed at (default 0.85)")
	overloadBacklogSec := flag.Float64("overload-backlog-sec", 0,
		"queue policy backlog bound, in seconds of full-fleet capacity (default 1.0)")
	scenarioFile := flag.String("scenario-file", "",
		"declarative scenario file (JSON: schedule + fleet + elasticity + faults); "+
			"runs it and prints the fleet timeline instead of any experiment")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlagCombos(set, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "awsim:", err)
		os.Exit(2)
	}

	if *scenarioFile != "" {
		if err := runScenarioFile(*scenarioFile, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "awsim:", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, n := range agilewatts.Experiments() {
			fmt.Println(n)
		}
		return
	}

	opts := agilewatts.DefaultOptions()
	if *quick {
		opts = agilewatts.QuickOptions()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *connections != 0 && *loadgen != agilewatts.LoadClosedLoop {
		// Bare ClosedLoopConnections would silently switch every run to
		// closed-loop and make rate sweeps meaningless; demand intent.
		fmt.Fprintln(os.Stderr, "awsim: -connections requires -loadgen closed-loop")
		os.Exit(2)
	}
	opts.Dispatch = *dispatch
	opts.LoadGen = *loadgen
	opts.Connections = *connections
	opts.Nodes = *nodes
	opts.ClusterDispatch = *clusterDispatch
	opts.Scenario = *scenarioName
	opts.Epoch = agilewatts.Duration(*epochMS) * 1_000_000
	opts.Replicas = *replicas
	opts.Controller = *controller
	opts.ControllerUpUtil = *ctrlUp
	opts.ControllerDownUtil = *ctrlDown
	opts.ControllerCooldown = *ctrlCooldown
	opts.OverloadPolicy = *overload
	opts.OverloadMaxUtil = *overloadMaxUtil
	opts.OverloadBacklogSec = *overloadBacklogSec

	names := flag.Args()
	if len(names) == 0 {
		names = []string{
			agilewatts.ExpFigure8, agilewatts.ExpFigure9, agilewatts.ExpFigure10,
			agilewatts.ExpFigure11, agilewatts.ExpFigure12, agilewatts.ExpFigure13,
			agilewatts.ExpTable5, agilewatts.ExpValidation,
		}
	}
	for _, n := range names {
		if err := agilewatts.RunExperiment(n, opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "awsim:", err)
			os.Exit(1)
		}
	}
}
