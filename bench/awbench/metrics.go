package main

// metricDef defines one reported metric.
type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher"; empty for a count a workload's
	// configuration fixes.
	Better string
	// Bound is the share of the baseline value by which an end-to-end
	// metric may worsen before compare calls it regressed; with Abs it is
	// an absolute difference instead. Per-layer metrics have no bound.
	Bound float64
	Abs   bool
	// Layer marks a per-layer metric. Most come from the traced pass; the
	// awserved ones come from the untraced client timings.
	Layer bool
	// Only names the single workload the metric applies to.
	Only string
	// Listed marks the metrics BENCHMARK.json lists, which every workload
	// reports; a unit test keeps the two in step.
	Listed bool
}

const (
	wPaperEval = "paper-eval"
	wFleet100K = "fleet-100k-diurnal"
	wFleet128  = "fleet-128-closedloop"
	wTwin      = "twin-served"
)

var metricDefs = []metricDef{
	// End to end, measured untraced from outside the program.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10, Listed: true},
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0, Abs: true},
	{Name: "step_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Only: wTwin},
	{Name: "step_ms_p99", Unit: "ms", Better: "lower", Bound: 0.25, Only: wTwin},
	{Name: "whatif_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25, Only: wTwin},
	{Name: "whatif_ms_p80", Unit: "ms", Better: "lower", Bound: 0.25, Only: wTwin},

	// Per layer, from the traced pass.
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower", Layer: true, Listed: true},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower", Layer: true, Listed: true},
	{Name: "runner.memo_hits", Unit: "count", Better: "higher", Layer: true, Listed: true},
	{Name: "runner.memo_misses", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "runner.memo_hit_ratio", Unit: "ratio", Better: "higher", Layer: true, Listed: true},
	{Name: "runner.class_nodes", Unit: "count", Layer: true},
	{Name: "runner.classes", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "runner.replica_runs", Unit: "count", Layer: true},
	{Name: "runner.timeline_key_us", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "runner.timeline_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "runner.timeline_hit_us", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "server.ns_per_sim_ms", Unit: "ns", Better: "lower", Layer: true, Listed: true},
	{Name: "server.ns_per_request", Unit: "ns", Better: "lower", Layer: true, Listed: true},
	{Name: "server.allocs_per_interval", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "server.snapshot_us", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "server.restore_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.run_scenario_s", Unit: "s", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.new_live_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.step_ms_p50", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.step_ms_max", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.step_ms_sum", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.result_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.fork_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.snapshot_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.snapshot_bytes", Unit: "bytes", Better: "lower", Layer: true, Listed: true},
	{Name: "cluster.restore_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "scenariofile.parse_us", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "experiments.scenario_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.overload_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.faults_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.figure8_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.figure10_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.figure11_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.racetohalt_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},
	{Name: "experiments.other_ms", Unit: "ms", Better: "lower", Layer: true, Only: wPaperEval},

	// Per layer, from the untraced awserved client timings.
	{Name: "awserved.checkpoint_ms_p50", Unit: "ms", Better: "lower", Layer: true, Only: wTwin},
	{Name: "awserved.checkpoint_bytes_max", Unit: "bytes", Better: "lower", Layer: true, Only: wTwin},
	{Name: "awserved.restore_ms_p50", Unit: "ms", Better: "lower", Layer: true, Only: wTwin},
	{Name: "awserved.result_ms", Unit: "ms", Better: "lower", Layer: true, Only: wTwin},
	{Name: "awserved.result_bytes", Unit: "bytes", Better: "lower", Layer: true, Only: wTwin},
	{Name: "awserved.http_overhead_ms", Unit: "ms", Better: "lower", Layer: true, Only: wTwin},
}

// experimentBuckets names the experiments that get their own
// experiments.<name>_ms span total; every other experiment adds to
// experiments.other_ms. Together the named ones take most of paper-eval.
var experimentBuckets = map[string]bool{
	"scenario": true, "overload": true, "faults": true, "figure8": true,
	"figure10": true, "figure11": true, "racetohalt": true,
}

func metricByName(name string) (metricDef, bool) {
	for _, m := range metricDefs {
		if m.Name == name {
			return m, true
		}
	}
	return metricDef{}, false
}
