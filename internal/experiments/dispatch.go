package experiments

import (
	"fmt"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DispatchResult compares request-to-core placement policies across the
// load sweep. The paper's evaluation assumes round-robin dispatch, which
// spreads load thin and maximizes idle-state entries (the Sec. 2 "killer
// microseconds" regime); consolidation-style packing is the opposing
// energy-proportionality strategy — it lets high-numbered cores reach
// deep C-states at the cost of queueing on the packed ones. This
// experiment quantifies that power/tail-latency trade-off under the
// Baseline platform configuration.
type DispatchResult struct {
	Policies []string
	Points   []DispatchPoint
}

// DispatchPoint is one load level; Results is parallel to Policies.
type DispatchPoint struct {
	RateQPS float64
	Results []server.Result
}

// Dispatch sweeps every dispatch policy over the Memcached load points.
func Dispatch(o Options) (DispatchResult, error) {
	o = o.normalize()
	out := DispatchResult{Policies: server.DispatchPolicies()}
	profile := workload.Memcached()
	np := len(out.Policies)
	points := make([]DispatchPoint, len(o.Rates))
	for i := range points {
		points[i] = DispatchPoint{RateQPS: o.Rates[i], Results: make([]server.Result, np)}
	}
	err := parallelMap(len(o.Rates)*np, func(i int) error {
		ri, pi := i/np, i%np
		cfg := o.serviceConfig(governor.Baseline, profile, o.Rates[ri])
		cfg.Dispatch = out.Policies[pi]
		res, err := run(cfg)
		if err != nil {
			return fmt.Errorf("dispatch %s: %w", out.Policies[pi], err)
		}
		points[ri].Results[pi] = res
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Points = points
	return out, nil
}

// deepResidency sums the C-state fractions deeper than C1.
func deepResidency(res server.Result) float64 {
	return res.Residency[cstate.C1E] + res.Residency[cstate.C6] +
		res.Residency[cstate.C6A] + res.Residency[cstate.C6AE]
}

// Table renders the power/tail-latency trade-off. The per-core power
// p10/p90 column quantifies how evenly each policy spreads work: one
// sorted copy of the per-core powers serves both quantiles
// (stats.SortedSeries).
func (r DispatchResult) Table() *report.Table {
	t := &report.Table{
		Title: "Dispatch policy study: power vs tail latency (Baseline, Memcached)",
		Headers: []string{"Rate (KQPS)", "Policy", "Core power", "Core W p10/p90",
			"Package", "Avg server", "p99 server", "Max queue"},
	}
	for _, p := range r.Points {
		for i, res := range p.Results {
			perCore := make([]float64, len(res.PerCore))
			for j, cs := range res.PerCore {
				perCore[j] = cs.AvgPowerW
			}
			sorted := stats.NewSortedSeries(perCore)
			t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), r.Policies[i],
				report.W(res.AvgCorePowerW),
				fmt.Sprintf("%.2f/%.2f", sorted.Percentile(0.10), sorted.Percentile(0.90)),
				report.W(res.PackagePowerW),
				report.US(res.Server.AvgUS), report.US(res.Server.P99US),
				fmt.Sprintf("%d", res.MaxQueueDepth))
		}
	}
	t.Notes = append(t.Notes,
		"round-robin (the paper's assumption) maximizes idle entries; packing",
		"consolidates onto low cores, trading queueing tail for deeper idle")
	return t
}

// ResidencyTable renders each policy's C-state residency picture.
func (r DispatchResult) ResidencyTable() *report.Table {
	t := &report.Table{
		Title: "Dispatch policy study: C-state residency",
		Headers: []string{"Rate (KQPS)", "Policy", "C0", "C1", "C1E", "C6",
			"Deep (>C1)", "C1->/s"},
	}
	for _, p := range r.Points {
		for i, res := range p.Results {
			t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), r.Policies[i],
				report.Pct(res.Residency[cstate.C0]),
				report.Pct(res.Residency[cstate.C1]),
				report.Pct(res.Residency[cstate.C1E]),
				report.Pct(res.Residency[cstate.C6]),
				report.Pct(deepResidency(res)),
				fmt.Sprintf("%.0f", res.TransitionsPerSec[cstate.C1]))
		}
	}
	t.Notes = append(t.Notes,
		"packed dispatch idles high-numbered cores long enough for C6;",
		"per-core skew is visible in Result.PerCore")
	return t
}
