package agilewatts

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestRunServiceDefaults(t *testing.T) {
	res, err := RunService(ServiceRun{RateQPS: 50_000, DurationNS: 100_000_000, WarmupNS: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedPerSec < 40_000 {
		t.Fatalf("throughput %v too low", res.CompletedPerSec)
	}
	if res.AvgCorePowerW <= 0 {
		t.Fatal("no power measured")
	}
}

func TestHeadlineClaim(t *testing.T) {
	// The abstract: AW reduces Memcached energy by up to 71% (35% on
	// average) with <1% end-to-end performance degradation. Check the
	// direction and the <1% bound at one representative point.
	base, err := RunService(ServiceRun{
		Platform: Baseline, RateQPS: 100_000,
		DurationNS: 150_000_000, WarmupNS: 15_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := RunService(ServiceRun{
		Platform: AW, RateQPS: 100_000,
		DurationNS: 150_000_000, WarmupNS: 15_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	saving := (base.AvgCorePowerW - aw.AvgCorePowerW) / base.AvgCorePowerW
	if saving < 0.2 {
		t.Errorf("power saving %.1f%% below 20%%", saving*100)
	}
	deg := (aw.EndToEnd.AvgUS - base.EndToEnd.AvgUS) / base.EndToEnd.AvgUS
	if deg > 0.01 {
		t.Errorf("end-to-end degradation %.2f%% above 1%%", deg*100)
	}
}

func TestRunClusterOneNodeMatchesRunService(t *testing.T) {
	// The public-API version of the superset guarantee: a 1-node spread
	// cluster is RunService, bit for bit.
	run := ServiceRun{RateQPS: 120_000, DurationNS: 100_000_000, WarmupNS: 10_000_000}
	single, err := RunService(run)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := RunCluster(ClusterRun{ServiceRun: run, Nodes: 1, ClusterDispatch: ClusterSpread})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fleet.Nodes[0].Result, single) {
		t.Error("RunCluster(1 node, spread) diverged from RunService")
	}
	if fleet.FleetPowerW != single.PackagePowerW || fleet.Server != single.Server {
		t.Error("fleet aggregates are not the single node's values")
	}
}

func TestRunClusterHeterogeneousOverride(t *testing.T) {
	res, err := RunCluster(ClusterRun{
		ServiceRun:      ServiceRun{RateQPS: 200_000, DurationNS: 80_000_000, WarmupNS: 10_000_000},
		Nodes:           2,
		ClusterDispatch: ClusterLeastLoaded,
		NodeOverride: func(i int, cfg NodeConfig) NodeConfig {
			if i == 1 {
				cfg.Cores = 40 // one big node
			}
			return cfg
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[1].RateQPS <= res.Nodes[0].RateQPS {
		t.Errorf("least-loaded did not favor the bigger node: %v vs %v",
			res.Nodes[1].RateQPS, res.Nodes[0].RateQPS)
	}
	if EPYC().Params(C6).PowerWatts < 0 {
		t.Fatal("EPYC catalog not exposed")
	}
}

func TestSharedSeedScenarioCollapsesAndReportsCI(t *testing.T) {
	// The public 100K story in miniature: a shared-seed spread fleet
	// collapses to one timeline equivalence class, replicas attach 95%
	// CIs, and the dedup is observable through RunnerDedupStats.
	n0, c0, r0 := RunnerDedupStats()
	res, err := RunScenario(ScenarioRun{
		ClusterRun: ClusterRun{
			ServiceRun: ServiceRun{
				RateQPS: 16 * 300e3, WarmupNS: 5_000_000, Seed: 7,
			},
			Nodes:           16,
			ClusterDispatch: ClusterSpread,
			SharedSeeds:     true,
		},
		Scenario:  ScenarioDiurnal,
		TotalNS:   40_000_000,
		EpochNS:   10_000_000,
		Execution: ScenarioExecution{Replicas: 2, CompactNodes: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Classes != 1 {
		t.Errorf("classes = %d, want 1 (shared seeds + spread must collapse)", res.Classes)
	}
	if res.ReplicaRuns != 2 {
		t.Errorf("replica runs = %d, want 2", res.ReplicaRuns)
	}
	if res.CI == nil || res.CI.Samples != 3 {
		t.Fatalf("CI = %+v, want 3-sample ensemble", res.CI)
	}
	if res.CI.FleetPowerW.Lo > res.CI.FleetPowerW.Hi {
		t.Errorf("inverted CI %+v", res.CI.FleetPowerW)
	}
	for _, ep := range res.Epochs {
		if ep.Fleet.Nodes != nil {
			t.Fatal("CompactNodes kept per-node detail")
		}
		if ep.CI == nil {
			t.Fatalf("epoch %d has no CI", ep.Epoch)
		}
		if ep.Fleet.ActiveNodes+ep.Fleet.IdleNodes != 16 {
			t.Fatalf("epoch %d node accounting: %d active + %d idle != 16",
				ep.Epoch, ep.Fleet.ActiveNodes, ep.Fleet.IdleNodes)
		}
	}
	n1, c1, r1 := RunnerDedupStats()
	if n1-n0 != 16 || c1-c0 != 1 || r1-r0 != 2 {
		t.Errorf("dedup stats delta = %d nodes / %d classes / %d replicas, want 16/1/2",
			n1-n0, c1-c0, r1-r0)
	}
}

func TestRunClusterRejectsClosedLoop(t *testing.T) {
	// The cluster dispatcher partitions open-loop rates; a closed-loop
	// template must be rejected loudly, not silently run open-loop.
	_, err := RunCluster(ClusterRun{
		ServiceRun: ServiceRun{Connections: 100, RateQPS: 100_000},
		Nodes:      2,
	})
	if err == nil {
		t.Fatal("closed-loop cluster template accepted")
	}
	if _, err := RunCluster(ClusterRun{Nodes: -2, ServiceRun: ServiceRun{RateQPS: 1}}); err == nil {
		t.Fatal("negative cluster size accepted")
	}
}

func TestAllExperimentsRun(t *testing.T) {
	opts := QuickOptions()
	for _, name := range Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := RunExperiment(name, opts, &buf); err != nil {
				t.Fatal(err)
			}
			if buf.Len() == 0 {
				t.Fatal("experiment produced no output")
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("nope", QuickOptions(), &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestConfigLookups(t *testing.T) {
	if len(Configs()) < 10 {
		t.Fatal("missing named configs")
	}
	c, err := ConfigByName("AW")
	if err != nil || !c.AgileWatts {
		t.Fatalf("AW lookup: %+v %v", c, err)
	}
	if _, err := ServiceByName("mysql"); err != nil {
		t.Fatal(err)
	}
}

func TestArchitectureExposed(t *testing.T) {
	arch := NewArchitecture()
	lo, hi := arch.C6APowerRange()
	if lo <= 0 || hi <= lo {
		t.Fatal("bad C6A power range")
	}
	if Skylake().Params(C6A).PowerWatts != 0.30 {
		t.Fatal("catalog C6A power wrong")
	}
}

func TestExperimentOutputsMentionPaperArtifacts(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment(ExpTable3, QuickOptions(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"UFPG", "CCSM", "ADPLL", "FIVR", "Overall"} {
		if !strings.Contains(out, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}
