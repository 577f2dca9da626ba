package cluster

import (
	"repro/internal/server"
	"repro/internal/stats"
)

// NodeResult is one node's simulation outcome plus its share of the
// fleet load.
type NodeResult struct {
	// Node is the index into ScenarioConfig.Nodes.
	Node int
	// RateQPS is the load the cluster dispatcher assigned to this node.
	RateQPS float64
	// Parked reports whether the node was quiesced (zero load under
	// ParkDrained).
	Parked bool
	// Result is the node's full single-server measurement.
	Result server.Result
}

// Result aggregates a fleet run. Per-node detail stays available in
// Nodes; the fleet-level fields are what the cluster experiment and the
// datacenter cost model consume.
type Result struct {
	// Dispatch and RateQPS echo the dispatch policy and the offered
	// rate it partitioned.
	Dispatch string
	RateQPS  float64

	// Nodes holds every node's result, indexed like ScenarioConfig.Nodes.
	Nodes []NodeResult

	// FleetPowerW is the total package power across nodes — the
	// measured quantity Table 5 extrapolates from a single server.
	FleetPowerW float64
	// FleetEnergyJ is the total package energy over the measured window.
	FleetEnergyJ float64
	// CompletedPerSec is the fleet throughput.
	CompletedPerSec float64
	// QPSPerWatt is the fleet's energy-proportionality figure of merit:
	// completions per joule. A perfectly proportional fleet holds it
	// constant across load; idle-heavy fleets see it collapse at low QPS.
	QPSPerWatt float64

	// ActiveNodes/IdleNodes count nodes with and without assigned load.
	ActiveNodes int
	IdleNodes   int

	// Server and EndToEnd aggregate the node latency distributions. The
	// mean is exact (completion-weighted); quantiles are
	// completion-weighted averages of the node quantiles — exact when
	// one node carries the load, an approximation when several do (the
	// underlying histograms are not retained in server.Result). Max is
	// exact.
	Server   server.LatencySummary
	EndToEnd server.LatencySummary
	// WorstP99US is the largest per-node server p99 — the node a
	// fleet-wide SLO is judged against.
	WorstP99US float64
	// MedianP99US / P90P99US summarize the spread of per-node server
	// p99s across nodes that carried load: a wide median-to-p90 gap
	// means the dispatch policy is concentrating tail pain on a few
	// nodes rather than degrading uniformly.
	MedianP99US float64
	P90P99US    float64
}

// combineSummaries merges per-node latency summaries as documented on
// Result.Server. With non-nil mults, part i stands for mults[i]
// identical nodes: its completion weight and count scale by the
// multiplicity, which is exactly what merging mults[i] copies would
// compute. Unit multiplicities (nil mults) reproduce the unweighted
// merge bit-for-bit — float64(Count)*1 is exact.
func combineSummaries(parts []server.LatencySummary, mults []int) server.LatencySummary {
	loaded := parts[:0:0]
	var lmults []int
	for i, p := range parts {
		if p.Count > 0 {
			loaded = append(loaded, p)
			if mults != nil {
				lmults = append(lmults, mults[i])
			}
		}
	}
	mult := func(i int) uint64 {
		if lmults == nil {
			return 1
		}
		return uint64(lmults[i])
	}
	if len(loaded) == 0 {
		return server.LatencySummary{}
	}
	if len(loaded) == 1 {
		// A single loaded part is exact whatever its weight: quantiles
		// of m identical distributions are the distribution's own.
		out := loaded[0]
		out.Count *= mult(0)
		return out
	}
	var out server.LatencySummary
	var total float64
	for i, p := range loaded {
		m := mult(i)
		w := float64(p.Count) * float64(m)
		out.Count += p.Count * m
		out.AvgUS += w * p.AvgUS
		out.P50US += w * p.P50US
		out.P95US += w * p.P95US
		out.P99US += w * p.P99US
		out.P999US += w * p.P999US
		if p.MaxUS > out.MaxUS {
			out.MaxUS = p.MaxUS
		}
		total += w
	}
	out.AvgUS /= total
	out.P50US /= total
	out.P95US /= total
	out.P99US /= total
	out.P999US /= total
	return out
}

// aggregateWeighted folds per-entry results into the fleet Result,
// echoing the dispatch policy and the rate it partitioned, with entry i
// standing for mults[i] identical nodes — the class-collapsed
// collector. nil mults means unit multiplicities with full per-node
// detail (Result.Nodes is set): every weighted term reduces to w=1
// exactly. With explicit mults the result is compact — Nodes stays nil,
// counts are weighted sums, and the p99-spread quantiles run through
// stats.WeightedSeries, which answers exactly what a SortedSeries over
// the expanded multiset would.
func aggregateWeighted(dispatch string, rate float64, nodes []NodeResult, mults []int) Result {
	out := Result{Dispatch: dispatch, RateQPS: rate}
	if mults == nil {
		out.Nodes = nodes
	}
	srv := make([]server.LatencySummary, len(nodes))
	e2e := make([]server.LatencySummary, len(nodes))
	for i, n := range nodes {
		m := 1
		if mults != nil {
			m = mults[i]
		}
		w := float64(m)
		out.FleetPowerW += w * n.Result.PackagePowerW
		out.FleetEnergyJ += w * (n.Result.PackagePowerW * n.Result.MeasuredDuration.Seconds())
		out.CompletedPerSec += w * n.Result.CompletedPerSec
		if n.RateQPS > 0 {
			out.ActiveNodes += m
		} else {
			out.IdleNodes += m
		}
		if n.Result.Server.P99US > out.WorstP99US {
			out.WorstP99US = n.Result.Server.P99US
		}
		srv[i] = n.Result.Server
		e2e[i] = n.Result.EndToEnd
	}
	out.Server = combineSummaries(srv, mults)
	out.EndToEnd = combineSummaries(e2e, mults)
	if out.FleetPowerW > 0 {
		out.QPSPerWatt = out.CompletedPerSec / out.FleetPowerW
	}
	// One sort serves both spread quantiles (stats.SortedSeries, or its
	// weighted twin over the class multiset).
	p99s := make([]float64, 0, len(nodes))
	var weights []uint64
	if mults != nil {
		weights = make([]uint64, 0, len(nodes))
	}
	for i, n := range nodes {
		if n.Result.Server.Count > 0 {
			p99s = append(p99s, n.Result.Server.P99US)
			if mults != nil {
				weights = append(weights, uint64(mults[i]))
			}
		}
	}
	if len(p99s) > 0 {
		if mults == nil {
			sorted := stats.NewSortedSeries(p99s)
			out.MedianP99US = sorted.Percentile(0.5)
			out.P90P99US = sorted.Percentile(0.9)
		} else {
			ws := stats.NewWeightedSeries(p99s, weights)
			out.MedianP99US = ws.Percentile(0.5)
			out.P90P99US = ws.Percentile(0.9)
		}
	}
	return out
}
