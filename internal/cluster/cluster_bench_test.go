package cluster

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchFleetCfg is the BenchmarkClusterRun configuration: a 4-node
// homogeneous Baseline fleet under spread dispatch, at 400K QPS for one
// epoch. Each iteration uses a fresh private Runner so memoization
// never short-circuits the measurement; the per-node seeds differ, so
// all four nodes simulate.
func benchFleetCfg(b *testing.B, r *runner.Runner) ScenarioConfig {
	template := server.Config{
		Platform: governor.Baseline,
		Profile:  workload.Memcached(),
		Duration: 20 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
		Seed:     1,
	}
	sched, err := scenario.Constant("steady", 400e3, template.Duration)
	if err != nil {
		b.Fatal(err)
	}
	return ScenarioConfig{
		Nodes:    Homogeneous(4, template),
		Schedule: sched,
		Runner:   r,
	}
}

// BenchmarkClusterRun measures a static fleet run — one epoch of a
// constant schedule: cluster dispatch, parallel node fan-out through the
// runner, and fleet aggregation.
func BenchmarkClusterRun(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(benchFleetCfg(b, runner.New(4))); err != nil {
			b.Fatal(err)
		}
	}
}
