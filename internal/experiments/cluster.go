package experiments

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/datacenter"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/scenario"
)

// ClusterSLOP99US is the fleet latency SLO the cluster study reports
// against: worst-node server-side p99 at most 500 us — loose enough for
// every spread point, tight enough that over-aggressive consolidation
// would show up as a violation.
const ClusterSLOP99US = 500.0

// ClusterResult extends the paper's Table 5 framing from one server to a
// simulated fleet: N-node clusters run under each cluster dispatch
// policy across the QPS sweep, and the datacenter cost model is fed the
// measured fleet power delta between Baseline and AW fleets instead of a
// single server's extrapolation.
type ClusterResult struct {
	// NodesPerFleet is the simulated fleet size per point.
	NodesPerFleet int
	// Policies are the cluster dispatch policies compared.
	Policies []string
	// CostPolicy is the policy under which the Baseline-vs-AW cost
	// comparison fleets ran.
	CostPolicy string
	// Points holds one entry per load level; Fleets is parallel to
	// Policies.
	Points []ClusterPoint
	// Cost holds the measured fleet savings per load level.
	Cost []ClusterCostRow
}

// ClusterPoint is one aggregate load level.
type ClusterPoint struct {
	RateQPS float64
	Fleets  []cluster.Result
}

// ClusterCostRow feeds the cost model with measured fleet deltas.
type ClusterCostRow struct {
	QPS             float64
	BaselineFleetW  float64
	AWFleetW        float64
	DeltaPerServerW float64
	SavingsPerYearM float64
}

// Cluster runs the fleet study: every cluster dispatch policy over the
// QPS sweep on Baseline fleets, plus a Baseline-vs-AW fleet pair (under
// o.ClusterDispatch, default spread) for the measured cost rows. Each
// fleet is a static fleet run: a constant schedule in one epoch.
func Cluster(o Options) (ClusterResult, error) {
	o = o.normalize()
	out := ClusterResult{
		NodesPerFleet: o.Nodes,
		Policies:      cluster.Policies(),
		CostPolicy:    o.ClusterDispatch,
	}
	if out.CostPolicy == "" {
		out.CostPolicy = cluster.DispatchSpread
	}
	// The cost pair's Baseline fleet is its policy's row entry.
	costBase := slices.Index(out.Policies, out.CostPolicy)
	if costBase < 0 {
		return out, fmt.Errorf("experiments: cluster: unknown dispatch policy %q (known: %v)",
			out.CostPolicy, out.Policies)
	}
	fleet := func(platform governor.Config, policy string, rate float64) (cluster.Result, error) {
		wrap := func(err error) error {
			return fmt.Errorf("experiments: cluster %s/%s @ %.0f QPS: %w", platform.Name, policy, rate, err)
		}
		sched, err := scenario.Constant("steady", rate, o.Duration)
		if err != nil {
			return cluster.Result{}, wrap(err)
		}
		node := o.fleetNode(platform)
		node.Duration = o.Duration
		res, err := cluster.RunScenario(cluster.ScenarioConfig{
			Nodes:       cluster.Homogeneous(o.Nodes, node),
			Schedule:    sched,
			Dispatch:    policy,
			ParkDrained: policy == cluster.DispatchConsolidate,
		})
		if err != nil {
			return cluster.Result{}, wrap(err)
		}
		return res.Epochs[0].Fleet, nil
	}
	// One flat fan-out over rate x (every policy, then the cost pair's AW
	// fleet), highest rate first: each rate's row of fleets is the
	// Baseline fleet under each policy, then the AW fleet under the cost
	// policy.
	type fleetRun struct {
		platform governor.Config
		policy   string
	}
	var row []fleetRun
	for _, policy := range out.Policies {
		row = append(row, fleetRun{governor.Baseline, policy})
	}
	row = append(row, fleetRun{governor.AW, out.CostPolicy})
	fleets := make([]cluster.Result, len(o.Rates)*len(row))
	err := parallelMap(len(fleets), func(t int) (err error) {
		t = len(fleets) - 1 - t
		run := row[t%len(row)]
		fleets[t], err = fleet(run.platform, run.policy, o.Rates[t/len(row)])
		return err
	})
	if err != nil {
		return out, err
	}
	model := datacenter.NewCostModel()
	np := len(out.Policies)
	for ri, rate := range o.Rates {
		f := fleets[ri*len(row) : (ri+1)*len(row)]
		out.Points = append(out.Points, ClusterPoint{RateQPS: rate, Fleets: f[:np:np]})
		base, aw := f[costBase], f[np]
		deltaFleet := base.FleetPowerW - aw.FleetPowerW
		savings, err := model.YearlySavingsMeasuredFleetM(deltaFleet, o.Nodes)
		if err != nil {
			return out, err
		}
		out.Cost = append(out.Cost, ClusterCostRow{
			QPS:             rate,
			BaselineFleetW:  base.FleetPowerW,
			AWFleetW:        aw.FleetPowerW,
			DeltaPerServerW: deltaFleet / float64(o.Nodes),
			SavingsPerYearM: savings,
		})
	}
	return out, nil
}

// slo renders the SLO verdict cell.
func slo(worstP99US float64) string {
	if worstP99US <= ClusterSLOP99US {
		return "ok"
	}
	return "VIOLATED"
}

// Table renders the policy power/tail comparison.
func (r ClusterResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Cluster study: fleet power vs tail across dispatch policies (%d nodes, Baseline, Memcached)", r.NodesPerFleet),
		Headers: []string{"Rate (KQPS)", "Policy", "Fleet W", "W/node", "Idle nodes",
			"p99 med/p90", "Worst p99", fmt.Sprintf("SLO<=%.0fus", ClusterSLOP99US), "QPS/W"},
	}
	for _, p := range r.Points {
		for i, f := range p.Fleets {
			t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), r.Policies[i],
				report.W(f.FleetPowerW),
				report.W(f.FleetPowerW/float64(r.NodesPerFleet)),
				fmt.Sprintf("%d", f.IdleNodes),
				fmt.Sprintf("%.0f/%.0fus", f.MedianP99US, f.P90P99US),
				report.US(f.WorstP99US), slo(f.WorstP99US),
				fmt.Sprintf("%.0f", f.QPSPerWatt))
		}
	}
	t.Notes = append(t.Notes,
		"spread is the round-robin fleet analogue; consolidate packs load onto",
		"few nodes and parks the rest into package deep idle (measured, not modeled)")
	return t
}

// CostTable renders the measured-fleet Table 5 counterpart.
func (r ClusterResult) CostTable() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Cluster cost: measured %d-node fleet savings, Baseline vs AW (%s policy)",
			r.NodesPerFleet, r.CostPolicy),
		Headers: []string{"QPS", "Baseline fleet W", "AW fleet W", "Delta W/server", "Savings ($M/yr)"},
	}
	for _, row := range r.Cost {
		t.AddRow(fmt.Sprintf("%.0fK", row.QPS/1000),
			report.W(row.BaselineFleetW), report.W(row.AWFleetW),
			report.W(row.DeltaPerServerW), fmt.Sprintf("%.2f", row.SavingsPerYearM))
	}
	t.Notes = append(t.Notes,
		"unlike Table 5, the per-server delta here is measured on a simulated",
		"fleet (per-node package power summed), then scaled to 100K servers")
	return t
}
