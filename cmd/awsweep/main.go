// Command awsweep runs a single service/configuration sweep and emits a
// CSV series — the raw data behind the paper's figures, for custom
// plotting or what-if exploration.
//
// Usage:
//
//	awsweep -service memcached -config AW -rates 10000,100000,500000
//
// With -nodes > 1 (or -cluster-dispatch set) the sweep runs an N-node
// fleet per rate point through the cluster layer and emits fleet-level
// columns instead:
//
//	awsweep -nodes 8 -cluster-dispatch consolidate -rates 10000,100000
//
// With -scenario set, each rate point becomes the base rate of a
// time-varying schedule stepped in -epoch-ms intervals, and the output
// is the per-epoch fleet timeline (one row per epoch per rate):
//
//	awsweep -nodes 8 -scenario diurnal -epoch-ms 30 -rates 800000
//
// Adding -replicas K to a scenario sweep switches the fleet to shared
// node seeds — identical per-node timelines then collapse to one
// simulated equivalence class — and runs K extra seeded replicas per
// class, appending 95% confidence-interval columns to each epoch row.
// That is what makes very large -nodes values (100K+) tractable:
//
//	awsweep -nodes 100000 -scenario diurnal -epoch-ms 30 -replicas 4 -rates 80000000000 -v
//
// Adding -controller runs the scenario closed-loop: the named fleet
// controller (oracle, reactive or predictive) sizes the active set from
// epoch telemetry instead of routing every epoch across the whole fleet
// (the oracle keeps the whole fleet), a target_nodes column
// is appended to each epoch row, and -v reports the controller's
// decisions-per-epoch alongside the cache statistics. -ctrl-up,
// -ctrl-down and -ctrl-cooldown tune the reactive hysteresis:
//
//	awsweep -nodes 8 -scenario spike -epoch-ms 20 -controller reactive -rates 800000 -v
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	agilewatts "repro"
)

func main() {
	service := flag.String("service", "memcached", "service profile: memcached|kafka|mysql")
	config := flag.String("config", "Baseline", "platform configuration name (see -configs)")
	rates := flag.String("rates", "10000,50000,100000,200000,300000,400000,500000", "comma-separated QPS points")
	seed := flag.Uint64("seed", 1, "simulation seed")
	durMS := flag.Int("duration-ms", 400, "measured window per point (ms)")
	snoop := flag.Float64("snoop-rate", 0, "per-core snoop rate (1/s)")
	dispatch := flag.String("dispatch", "",
		"dispatch policy: "+strings.Join(agilewatts.DispatchPolicies(), "|"))
	loadgen := flag.String("loadgen", "",
		"load generator: "+strings.Join(agilewatts.LoadGenerators(), "|"))
	connections := flag.Int("connections", 0,
		"closed-loop connection count (required with -loadgen closed-loop)")
	nodes := flag.Int("nodes", 1, "fleet size; > 1 sweeps an N-node cluster")
	clusterDispatch := flag.String("cluster-dispatch", "",
		"cluster load-partitioning policy (implies a cluster sweep): "+
			strings.Join(agilewatts.ClusterPolicies(), "|"))
	park := flag.Bool("park-drained", true,
		"park nodes the cluster policy drains (package deep idle)")
	scenarioName := flag.String("scenario", "",
		"time-varying load shape (implies a scenario sweep): "+
			strings.Join(agilewatts.ScenarioNames(), "|"))
	epochMS := flag.Int("epoch-ms", 0,
		"scenario re-dispatch interval in ms (default: one epoch per schedule)")
	replicas := flag.Int("replicas", 0,
		"scenario sweeps only: K seeded replicas per timeline equivalence class; "+
			"switches the fleet to shared node seeds (identical timelines collapse "+
			"to one simulated class) and appends 95% CI columns to the CSV")
	controller := flag.String("controller", "",
		"scenario sweeps only: closed-loop fleet controller (warm path): "+
			strings.Join(agilewatts.FleetControllers(), "|")+
			"; appends a target_nodes column (default: open-loop plan)")
	ctrlUp := flag.Float64("ctrl-up", 0,
		"reactive controller scale-up utilization threshold (default 0.75)")
	ctrlDown := flag.Float64("ctrl-down", 0,
		"reactive controller scale-down utilization threshold (default 0.40)")
	ctrlCooldown := flag.Int("ctrl-cooldown", 0,
		"reactive controller minimum epochs between target changes (default 2)")
	overload := flag.String("overload", "",
		"scenario sweeps only: admission-control policy past the active fleet's capacity: "+
			strings.Join(agilewatts.OverloadPolicies(), "|")+
			"; appends saturated and shedded_requests columns (default: admit everything)")
	overloadMaxUtil := flag.Float64("overload-max-util", 0,
		"per-node utilization the admission capacity is computed at (default 0.85)")
	overloadBacklogSec := flag.Float64("overload-backlog-sec", 0,
		"queue policy backlog bound, in seconds of full-fleet capacity (default 1.0)")
	verbose := flag.Bool("v", false,
		"print sweep-executor cache statistics (hits/misses, interval timeline "+
			"runs included) to stderr after the sweep")
	configs := flag.Bool("configs", false, "list configuration names and exit")
	scenarioFile := flag.String("scenario-file", "",
		"declarative scenario file (JSON: schedule + fleet + elasticity + faults); "+
			"runs it and emits the per-epoch timeline CSV instead of a rate sweep")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlagCombos(set); err != nil {
		fatal(err)
	}

	if *scenarioFile != "" {
		if err := sweepScenarioFile(*scenarioFile, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *configs {
		for _, c := range agilewatts.Configs() {
			fmt.Printf("%-22s turbo=%v menu=%v\n", c.Name, c.Turbo, c.Menu)
		}
		return
	}

	if *connections != 0 && *loadgen != agilewatts.LoadClosedLoop {
		// Bare ClosedLoopConnections would silently switch the sweep to
		// closed-loop and ignore -rates; demand intent.
		fatal(fmt.Errorf("-connections requires -loadgen closed-loop"))
	}
	if *nodes < 1 {
		fatal(fmt.Errorf("-nodes must be >= 1, got %d", *nodes))
	}

	prof, err := agilewatts.ServiceByName(*service)
	if err != nil {
		fatal(err)
	}
	cfg, err := agilewatts.ConfigByName(*config)
	if err != nil {
		fatal(err)
	}

	scenarioMode := *scenarioName != ""
	clustered := *nodes > 1 || *clusterDispatch != ""
	if *replicas > 0 && !scenarioMode {
		fatal(fmt.Errorf("-replicas requires -scenario (replicas are a scenario-engine feature)"))
	}
	if *controller != "" && !scenarioMode {
		fatal(fmt.Errorf("-controller requires -scenario (controllers drive the scenario fleet)"))
	}
	if scenarioMode {
		header := "base_qps,epoch,start_ms,end_ms,phase,rate_qps,active_nodes,parked_nodes,unparks,fleet_w,fleet_qps,qps_per_w,worst_p99_us"
		if *controller != "" {
			header += ",target_nodes"
		}
		if *overload != "" {
			header += ",saturated,shedded_requests"
		}
		if *replicas > 0 {
			header += ",fleet_w_lo,fleet_w_hi,qps_per_w_lo,qps_per_w_hi,worst_p99_lo_us,worst_p99_hi_us"
		}
		fmt.Println(header)
	} else if clustered {
		fmt.Println("rate_qps,nodes,active_nodes,idle_nodes,fleet_w,w_per_node,fleet_qps,qps_per_w,server_avg_us,server_p99_us,worst_p99_us,e2e_p99_us")
	} else {
		fmt.Println("rate_qps,avg_core_w,package_w,server_avg_us,server_p99_us,e2e_avg_us,e2e_p99_us,c0,c1,c6a,c1e,c6ae,c6,turbo_fraction")
	}
	var ctrlChanges, ctrlEpochs int
	var ovSaturated int
	var ovShedded, ovBacklog float64
	for _, part := range strings.Split(*rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal(fmt.Errorf("bad rate %q: %w", part, err))
		}
		run := agilewatts.ServiceRun{
			Platform:        cfg,
			Service:         prof,
			RateQPS:         rate,
			Seed:            *seed,
			DurationNS:      agilewatts.Duration(*durMS) * 1_000_000,
			SnoopRatePerSec: *snoop,
			Dispatch:        *dispatch,
			LoadGen:         *loadgen,
			Connections:     *connections,
		}
		if scenarioMode {
			res, err := agilewatts.RunScenario(agilewatts.ScenarioRun{
				ClusterRun: agilewatts.ClusterRun{
					ServiceRun:      run,
					Nodes:           *nodes,
					ClusterDispatch: *clusterDispatch,
					ParkDrained:     *park,
					// Shared seeds are what let identical timelines
					// collapse to one class; replicas restore error bars.
					SharedSeeds: *replicas > 0,
				},
				Scenario: *scenarioName,
				EpochNS:  agilewatts.Duration(*epochMS) * 1_000_000,
				Execution: agilewatts.ScenarioExecution{
					Replicas:     *replicas,
					CompactNodes: *replicas > 0,
				},
				Elasticity: agilewatts.ScenarioElasticity{
					Controller: agilewatts.ControllerSpec{
						Name:     *controller,
						UpUtil:   *ctrlUp,
						DownUtil: *ctrlDown,
						Cooldown: *ctrlCooldown,
					},
				},
				Overload: agilewatts.OverloadSpec{
					Policy:        *overload,
					MaxUtil:       *overloadMaxUtil,
					MaxBacklogSec: *overloadBacklogSec,
				},
			})
			if err != nil {
				fatal(err)
			}
			ctrlChanges += res.ControllerChanges
			ctrlEpochs += len(res.Epochs)
			ovSaturated += res.SaturatedEpochs
			ovShedded += res.SheddedRequests
			ovBacklog += res.BacklogRate
			for _, ep := range res.Epochs {
				fmt.Printf("%.0f,%d,%.1f,%.1f,%s,%.0f,%d,%d,%d,%.2f,%.0f,%.1f,%.2f",
					rate, ep.Epoch,
					float64(ep.Start)/1e6, float64(ep.End)/1e6,
					ep.Phase, ep.RateQPS,
					ep.Fleet.ActiveNodes, ep.Parked, ep.Unparked,
					ep.Fleet.FleetPowerW, ep.Fleet.CompletedPerSec,
					ep.Fleet.QPSPerWatt, ep.Fleet.WorstP99US)
				if *controller != "" {
					fmt.Printf(",%d", ep.TargetNodes)
				}
				if *overload != "" {
					sat := 0
					if ep.Saturated {
						sat = 1
					}
					fmt.Printf(",%d,%.0f", sat, ep.SheddedRequests)
				}
				if *replicas > 0 && ep.CI != nil {
					fmt.Printf(",%.2f,%.2f,%.1f,%.1f,%.2f,%.2f",
						ep.CI.FleetPowerW.Lo, ep.CI.FleetPowerW.Hi,
						ep.CI.QPSPerWatt.Lo, ep.CI.QPSPerWatt.Hi,
						ep.CI.WorstP99US.Lo, ep.CI.WorstP99US.Hi)
				}
				fmt.Println()
			}
			continue
		}
		if clustered {
			res, err := agilewatts.RunCluster(agilewatts.ClusterRun{
				ServiceRun:      run,
				Nodes:           *nodes,
				ClusterDispatch: *clusterDispatch,
				ParkDrained:     *park,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%.0f,%d,%d,%d,%.2f,%.2f,%.0f,%.1f,%.2f,%.2f,%.2f,%.2f\n",
				rate, *nodes, res.ActiveNodes, res.IdleNodes,
				res.FleetPowerW, res.FleetPowerW/float64(*nodes),
				res.CompletedPerSec, res.QPSPerWatt,
				res.Server.AvgUS, res.Server.P99US, res.WorstP99US,
				res.EndToEnd.P99US)
			continue
		}
		res, err := agilewatts.RunService(run)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%.0f,%.4f,%.2f,%.2f,%.2f,%.2f,%.2f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
			rate, res.AvgCorePowerW, res.PackagePowerW,
			res.Server.AvgUS, res.Server.P99US,
			res.EndToEnd.AvgUS, res.EndToEnd.P99US,
			res.Residency[agilewatts.C0], res.Residency[agilewatts.C1],
			res.Residency[agilewatts.C6A], res.Residency[agilewatts.C1E],
			res.Residency[agilewatts.C6AE], res.Residency[agilewatts.C6],
			res.TurboFraction)
	}
	if *verbose {
		hits, misses := agilewatts.RunnerStats()
		total := hits + misses
		pct := 0.0
		if total > 0 {
			pct = float64(hits) / float64(total) * 100
		}
		fmt.Fprintf(os.Stderr, "awsweep: runner cache: %d hits / %d misses (%.1f%% hit rate, timeline runs included)\n",
			hits, misses, pct)
		if dnodes, classes, reps := agilewatts.RunnerDedupStats(); dnodes > 0 {
			dpct := (1 - float64(classes)/float64(dnodes)) * 100
			fmt.Fprintf(os.Stderr, "awsweep: class dedup: %d nodes -> %d classes (%.1f%% deduped), %d replica runs\n",
				dnodes, classes, dpct, reps)
		}
		if *controller != "" && ctrlEpochs > 0 {
			fmt.Fprintf(os.Stderr, "awsweep: controller %s: %d target changes over %d epochs (%.2f decisions/epoch)\n",
				*controller, ctrlChanges, ctrlEpochs, float64(ctrlChanges)/float64(ctrlEpochs))
		}
		if *overload != "" {
			fmt.Fprintf(os.Stderr, "awsweep: overload %s: %d saturated epochs, %.0f requests shed, %.0f QPS backlog at end\n",
				*overload, ovSaturated, ovShedded, ovBacklog)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awsweep:", err)
	os.Exit(1)
}
