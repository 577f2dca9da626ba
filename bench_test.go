package agilewatts

// The benchmark harness regenerates every table and figure of the paper.
// Each benchmark runs the corresponding experiment end to end and, on the
// first iteration, prints the reproduced rows/series so that
//
//	go test -bench=. -benchmem
//
// emits the full evaluation alongside the timing. Quick fidelity is used
// so the full suite completes in minutes; run cmd/awsim for
// full-fidelity output.

import (
	"io"
	"os"
	"sync"
	"testing"

	"repro/internal/xrand"
)

var printOnce sync.Map

// benchSeedBlock hands each benchmark invocation a disjoint seed range
// (see xrand.SeedBlocks for the block-size invariant).
var benchSeedBlock xrand.SeedBlocks

// benchExperiment runs one experiment per iteration, printing the report
// on the first run of each benchmark. Seeds are unique per iteration AND
// per benchmark, so the process-wide runner cache never short-circuits
// the measurement — not within a benchmark, and not across benchmarks
// whose sweeps overlap (Fig. 8/10, Table 5, the proportionality and
// cluster studies share the Baseline Memcached curve).
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	opts := QuickOptions()
	base := benchSeedBlock.Next(opts.Seed)
	for i := 0; i < b.N; i++ {
		// Stride iterations within the block: fleet experiments derive
		// per-node seeds Seed..Seed+Nodes-1, which adjacent iteration
		// seeds would otherwise share (and memoize away). A stride of 16
		// covers the cluster experiment's fleets while keeping the block
		// good for 2^16 iterations — far beyond any realistic b.N.
		opts.Seed = base + uint64(i)<<4
		var w io.Writer = io.Discard
		if _, done := printOnce.LoadOrStore(name, true); !done {
			w = os.Stdout
		}
		if err := RunExperiment(name, opts, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the C-state hierarchy (paper Table 1).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, ExpTable1) }

// BenchmarkTable2 regenerates the component-state matrix (paper Table 2).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, ExpTable2) }

// BenchmarkTable3 regenerates the PPA breakdown (paper Table 3).
func BenchmarkTable3(b *testing.B) { benchExperiment(b, ExpTable3) }

// BenchmarkTable4 regenerates the power-gating comparison (paper Table 4).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, ExpTable4) }

// BenchmarkTable5 regenerates the datacenter cost savings (paper Table 5).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, ExpTable5) }

// BenchmarkMotivation regenerates the Sec. 2 upper-bound analysis.
func BenchmarkMotivation(b *testing.B) { benchExperiment(b, ExpMotivation) }

// BenchmarkLatency regenerates the Sec. 5.2 transition-latency analysis.
func BenchmarkLatency(b *testing.B) { benchExperiment(b, ExpLatency) }

// BenchmarkFigure8 regenerates the Memcached baseline-vs-AW sweep
// (paper Fig. 8 a-d).
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, ExpFigure8) }

// BenchmarkFigure9 regenerates the tuned-configuration study (paper Fig. 9).
func BenchmarkFigure9(b *testing.B) { benchExperiment(b, ExpFigure9) }

// BenchmarkFigure10 regenerates AW vs tuned configurations (paper Fig. 10).
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, ExpFigure10) }

// BenchmarkFigure11 regenerates the Turbo interplay study (paper Fig. 11).
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, ExpFigure11) }

// BenchmarkFigure12 regenerates the MySQL evaluation (paper Fig. 12).
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, ExpFigure12) }

// BenchmarkFigure13 regenerates the Kafka evaluation (paper Fig. 13).
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, ExpFigure13) }

// BenchmarkValidation regenerates the Sec. 6.3 model validation.
func BenchmarkValidation(b *testing.B) { benchExperiment(b, ExpValidation) }

// BenchmarkSnoop regenerates the Sec. 7.5 snoop-impact analysis.
func BenchmarkSnoop(b *testing.B) { benchExperiment(b, ExpSnoop) }

// BenchmarkAMD regenerates the Sec. 5.5 EPYC analysis.
func BenchmarkAMD(b *testing.B) { benchExperiment(b, ExpAMD) }

// BenchmarkRaceToHalt regenerates the Sec. 8 race-to-halt analysis.
func BenchmarkRaceToHalt(b *testing.B) { benchExperiment(b, ExpRaceToHalt) }

// BenchmarkPkgIdle regenerates the package idle-state extension.
func BenchmarkPkgIdle(b *testing.B) { benchExperiment(b, ExpPkgIdle) }

// BenchmarkBreakdown regenerates the latency decomposition.
func BenchmarkBreakdown(b *testing.B) { benchExperiment(b, ExpBreakdown) }

// BenchmarkAblateGovernor regenerates the governor-policy ablation.
func BenchmarkAblateGovernor(b *testing.B) { benchExperiment(b, ExpAblateGovernor) }

// BenchmarkAblateZones regenerates the UFPG zone-count ablation.
func BenchmarkAblateZones(b *testing.B) { benchExperiment(b, ExpAblateZones) }

// BenchmarkAblatePower regenerates the C6A power-budget sensitivity.
func BenchmarkAblatePower(b *testing.B) { benchExperiment(b, ExpAblatePower) }

// BenchmarkAblateNoise regenerates the OS-noise sensitivity study.
func BenchmarkAblateNoise(b *testing.B) { benchExperiment(b, ExpAblateNoise) }

// BenchmarkDispatch regenerates the dispatch-policy trade-off study.
func BenchmarkDispatch(b *testing.B) { benchExperiment(b, ExpDispatch) }

// BenchmarkCluster regenerates the fleet spread-vs-consolidate study.
func BenchmarkCluster(b *testing.B) { benchExperiment(b, ExpCluster) }

// BenchmarkScenario regenerates the time-varying fleet study (the
// diurnal Baseline-vs-AW day and the controller comparison).
func BenchmarkScenario(b *testing.B) { benchExperiment(b, ExpScenario) }

// BenchmarkFaults regenerates the crash-under-spike fault study.
func BenchmarkFaults(b *testing.B) { benchExperiment(b, ExpFaults) }

// BenchmarkOverload regenerates the admission-control study.
func BenchmarkOverload(b *testing.B) { benchExperiment(b, ExpOverload) }

// BenchmarkQuickEvaluation regenerates the whole evaluation at quick
// fidelity once per iteration: every experiment in Experiments() order,
// as the benchmark's paper-eval workload runs it. Seeds come from the
// same disjoint blocks as benchExperiment's, so no iteration is served
// from another's memoized simulations.
func BenchmarkQuickEvaluation(b *testing.B) {
	opts := QuickOptions()
	base := benchSeedBlock.Next(opts.Seed)
	for i := 0; i < b.N; i++ {
		opts.Seed = base + uint64(i)<<4
		for _, name := range Experiments() {
			if err := RunExperiment(name, opts, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulatorThroughput measures raw discrete-event simulator
// speed: one 100ms Memcached window at 200 KQPS per iteration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := RunService(ServiceRun{
			Platform: Baseline, RateQPS: 200_000,
			DurationNS: 100_000_000, WarmupNS: 10_000_000,
			Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
