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

// benchScenarioCfg is the BenchmarkRunScenario configuration: the
// default diurnal day over a 64-node consolidate fleet, stepped in 24
// epochs. Each node pays the 10ms warmup once and runs its whole
// timeline as one pipelined task. Each iteration uses a fresh private
// Runner so memoization never short-circuits the measurement.
func benchScenarioCfg(r *runner.Runner) ScenarioConfig {
	template := server.Config{
		Platform: governor.Baseline,
		Profile:  workload.Memcached(),
		Warmup:   10 * sim.Millisecond,
		Seed:     1,
	}
	const nodes = 64
	total := 48 * sim.Millisecond // a compressed day: 24 x 2ms epochs
	sched, err := scenario.Diurnal(nodes*800e3, 0.6, total, 12)
	if err != nil {
		panic(err)
	}
	return ScenarioConfig{
		Nodes:       Homogeneous(nodes, template),
		Schedule:    sched,
		Epoch:       2 * sim.Millisecond,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
		Runner:      r,
	}
}

// BenchmarkRunScenarioWarm measures the open-loop engine on the
// default diurnal 64-node configuration.
func BenchmarkRunScenarioWarm(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunScenario(benchScenarioCfg(runner.New(0))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunScenarioWarmReactive measures the closed-loop engine
// (Live) on the same configuration as BenchmarkRunScenarioWarm, with the
// reactive controller in the loop: per-epoch telemetry aggregation,
// controller evaluation, and live-class rate-divergence splits on top of
// the node simulations. The delta against BenchmarkRunScenarioWarm is the
// control plane's overhead.
func BenchmarkRunScenarioWarmReactive(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := benchScenarioCfg(runner.New(0))
		cfg.Controller = ControllerSpec{Name: ControllerReactive}
		if _, err := RunScenario(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunScenario100K measures the class-collapsed compact path at
// datacenter scale: a 100K-node shared-seed fleet over the same
// compressed diurnal day (24 epochs), spread dispatch so every node
// sees one rate timeline and the whole fleet collapses to a single
// equivalence class, plus 4 seeded replicas for 95% error bars. The
// simulation work is 5 node timelines; the per-node residue is the
// O(nodes) plan/keying pass and the O(classes x epochs) compact
// aggregation — which is what this benchmark gates.
func BenchmarkRunScenario100K(b *testing.B) {
	cfg := scenario100K(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Runner = runner.New(0)
		res, err := RunScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Classes != 1 || res.CI == nil {
			b.Fatalf("fleet did not collapse: %d classes, CI %v", res.Classes, res.CI)
		}
	}
}

// scenario100K is BenchmarkRunScenario100K's configuration: 100K
// shared-seed nodes over the compressed diurnal day, spread dispatch,
// parking, 4 replicas and compact aggregation, with no Runner set.
func scenario100K(tb testing.TB) ScenarioConfig {
	template := server.Config{
		Platform: governor.Baseline,
		Profile:  workload.Memcached(),
		Warmup:   10 * sim.Millisecond,
		Seed:     1,
	}
	const nodes = 100_000
	total := 48 * sim.Millisecond
	sched, err := scenario.Diurnal(nodes*800e3, 0.6, total, 12)
	if err != nil {
		tb.Fatal(err)
	}
	fleet := make([]server.Config, nodes)
	for i := range fleet {
		fleet[i] = template
	}
	return ScenarioConfig{
		Nodes:        fleet,
		Schedule:     sched,
		Epoch:        2 * sim.Millisecond,
		Dispatch:     DispatchSpread,
		ParkDrained:  true,
		Replicas:     4,
		CompactNodes: true,
	}
}

// BenchmarkNewLive measures building the steppable fleet for
// BenchmarkRunScenario100K's day: plan, the initial O(nodes) class
// keying, and one fresh cursor for the single class.
func BenchmarkNewLive(b *testing.B) {
	b.Run("shared-100K", func(b *testing.B) {
		cfg := scenario100K(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg.Runner = runner.New(0)
			if _, err := NewLive(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkClassifyTimelines measures the timeline-class pass alone on
// BenchmarkRunScenario100K's 100K-node day: shared seeds (one class, so
// the cost is per-node key encoding and map hits) and distinct seeds
// (100K singleton classes, each paying its own map slot and interval
// list).
func BenchmarkClassifyTimelines(b *testing.B) {
	for _, tc := range []struct {
		name   string
		shared bool
	}{{"shared-100K", true}, {"distinct-100K", false}} {
		b.Run(tc.name, func(b *testing.B) {
			c, plan := classifyFixture(b, 100_000, tc.shared)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				classifyTimelines(c, plan, nil)
			}
		})
	}
}
