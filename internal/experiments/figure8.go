package experiments

import (
	"fmt"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/turbo"
	"repro/internal/workload"
)

// Figure8Point is one load point of the Fig. 8 Memcached evaluation.
type Figure8Point struct {
	RateQPS float64

	// (a) Baseline C-state residency.
	Baseline server.Result

	// (b) AW average-power reduction (analytical transform per Sec. 6.2,
	// Eq. 4) and latency degradation measured by running the AW config.
	AW                    server.Result
	AvgPReductionPct      float64
	AvgLatDegradationPct  float64
	TailLatDegradationPct float64

	// (c) Response-time degradation analysis: worst case charges every
	// query one C6A transition; expected case charges the observed
	// transitions. Both for server-side and end-to-end.
	WorstServerPct, WorstE2EPct       float64
	ExpectedServerPct, ExpectedE2EPct float64

	// (d) Performance scalability from 2.0 to 2.2 GHz.
	ScalabilityPct float64
}

// Figure8Result is the full sweep.
type Figure8Result struct {
	Points []Figure8Point
	// AvgReductionPct is the mean power reduction across load points
	// (paper: ~23.5% average, up to 38%).
	AvgReductionPct float64
}

// Figure8 runs the baseline-vs-AW Memcached sweep (paper Fig. 8).
func Figure8(o Options) (Figure8Result, error) {
	o = o.normalize()
	profile := workload.Memcached()
	cat := cstate.Skylake()
	vec := power.VectorFromCatalog(cat)
	var out Figure8Result
	// Per rate: Baseline and AW, then the Turbo-less baseline pinned at
	// 2.0 and 2.2 GHz for the scalability study (d).
	grid, err := o.serviceGrid(profile, o.Rates,
		[]governor.Config{governor.Baseline, governor.AW, governor.NTBaseline, governor.NTBaseline},
		[]float64{0, 0, 2.0e9, 2.2e9})
	if err != nil {
		return out, err
	}
	for i, rate := range o.Rates {
		base, aw, slow, fast := grid[i][0], grid[i][1], grid[i][2], grid[i][3]
		p := Figure8Point{RateQPS: rate, Baseline: base, AW: aw}

		// (b) Power reduction via the Eq. 4 methodology: replace C1/C1E
		// residency power with C6A/C6AE power relative to the measured
		// baseline average power (Turbo effects included in C0).
		p.AvgPReductionPct = power.TurboSavings(
			base.Residency[cstate.C1], base.Residency[cstate.C1E],
			base.AvgCorePowerW, vec)
		p.AvgLatDegradationPct = pctOver(aw.EndToEnd.AvgUS, base.EndToEnd.AvgUS)
		p.TailLatDegradationPct = pctOver(aw.EndToEnd.P99US, base.EndToEnd.P99US)

		// (c) Worst/expected-case response-time degradation from the AW
		// transition latency (~100 ns round trip).
		const awTransUS = 0.1
		serverAvg := base.Server.AvgUS
		e2eAvg := base.EndToEnd.AvgUS
		p.WorstServerPct = awTransUS / serverAvg * 100
		p.WorstE2EPct = awTransUS / e2eAvg * 100
		// Expected: observed C1+C1E transition rate spread across queries.
		// Transitions triggered by background OS activity are not on any
		// query's critical path, so at most one transition per query
		// contributes (the paper's worst case is exactly one per query).
		transPerSec := base.TransitionsPerSec[cstate.C1] + base.TransitionsPerSec[cstate.C1E]
		if transPerSec > base.CompletedPerSec {
			transPerSec = base.CompletedPerSec
		}
		perQueryUS := 0.0
		if base.CompletedPerSec > 0 {
			perQueryUS = transPerSec / base.CompletedPerSec * awTransUS
		}
		p.ExpectedServerPct = perQueryUS / serverAvg * 100
		p.ExpectedE2EPct = perQueryUS / e2eAvg * 100

		// (d) Scalability: compare mean server-side performance at the
		// two pinned clocks (Turbo disabled).
		p.ScalabilityPct = turbo.ScalabilityPercent(
			1/slow.Server.AvgUS, 1/fast.Server.AvgUS, 2.0e9, 2.2e9)
		out.Points = append(out.Points, p)
	}
	sum := 0.0
	for _, p := range out.Points {
		sum += p.AvgPReductionPct
	}
	if len(out.Points) > 0 {
		out.AvgReductionPct = sum / float64(len(out.Points))
	}
	return out, nil
}

func pctOver(new, base float64) float64 {
	if base <= 0 {
		return 0
	}
	return (new - base) / base * 100
}

// ResidencyTable renders Fig. 8(a).
func (r Figure8Result) ResidencyTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 8(a): Baseline C-state residency vs request rate (Memcached)",
		Headers: []string{"Rate (KQPS)", "C0", "C1", "C1E", "C6"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000),
			report.Pct(p.Baseline.Residency[cstate.C0]),
			report.Pct(p.Baseline.Residency[cstate.C1]),
			report.Pct(p.Baseline.Residency[cstate.C1E]),
			report.Pct(p.Baseline.Residency[cstate.C6]))
	}
	return t
}

// SavingsTable renders Fig. 8(b).
func (r Figure8Result) SavingsTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 8(b): AW AvgP reduction and latency degradation vs baseline",
		Headers: []string{"Rate (KQPS)", "AvgP reduction", "Avg lat degr.", "Tail lat degr."},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000),
			fmt.Sprintf("%.1f%%", p.AvgPReductionPct),
			fmt.Sprintf("%.2f%%", p.AvgLatDegradationPct),
			fmt.Sprintf("%.2f%%", p.TailLatDegradationPct))
	}
	t.AddRow("Avg", fmt.Sprintf("%.1f%%", r.AvgReductionPct), "", "")
	t.Notes = append(t.Notes, "paper: up to 38% reduction at low load, ~10% at high load, <1.3% latency impact")
	return t
}

// DegradationTable renders Fig. 8(c).
func (r Figure8Result) DegradationTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 8(c): AW average response-time degradation (worst vs expected case)",
		Headers: []string{"Rate (KQPS)", "Worst e2e", "Worst server", "Expected e2e", "Expected server"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000),
			fmt.Sprintf("%.4f%%", p.WorstE2EPct),
			fmt.Sprintf("%.4f%%", p.WorstServerPct),
			fmt.Sprintf("%.4f%%", p.ExpectedE2EPct),
			fmt.Sprintf("%.4f%%", p.ExpectedServerPct))
	}
	t.Notes = append(t.Notes, "network latency (117us) dominates end-to-end, so e2e degradation is negligible")
	return t
}

// ScalabilityTable renders Fig. 8(d).
func (r Figure8Result) ScalabilityTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 8(d): Memcached performance scalability, 2.0 -> 2.2 GHz",
		Headers: []string{"Rate (KQPS)", "Perf. scalability"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), fmt.Sprintf("%.0f%%", p.ScalabilityPct))
	}
	return t
}
