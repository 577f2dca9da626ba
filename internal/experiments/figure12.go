package experiments

import (
	"fmt"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/power"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

// ServiceEvalPoint is one load level of the MySQL (Fig. 12) or Kafka
// (Fig. 13) evaluation.
type ServiceEvalPoint struct {
	Label   string
	RateQPS float64
	// Baseline: P-states disabled, C1+C6 enabled.
	Baseline server.Result
	// NoC6: the vendor-recommended C6-disabled configuration.
	NoC6 server.Result
	// Latency improvement of NoC6 over Baseline (paper Fig. 12/13(c)).
	AvgLatReductionPct, TailLatReductionPct float64
	// AvgPReductionPct: AW's C6A vs the NoC6 configuration — the NoC6
	// run's C1 residency mapped to C6A power (paper Fig. 12/13(d)).
	AvgPReductionPct float64
}

// ServiceEvalResult is a full Fig. 12/13-style evaluation.
type ServiceEvalResult struct {
	Service string
	Points  []ServiceEvalPoint
}

func serviceEval(o Options, profile workload.Profile, labels []string, rates []float64) (ServiceEvalResult, error) {
	o = o.normalize()
	out := ServiceEvalResult{Service: profile.Name}
	vec := power.VectorFromCatalog(cstate.Skylake())
	grid, err := o.serviceGrid(profile, rates, []governor.Config{governor.KVBaseline, governor.KVNoC6}, nil)
	if err != nil {
		return out, err
	}
	for i, rate := range rates {
		base, noC6 := grid[i][0], grid[i][1]
		p := ServiceEvalPoint{Label: labels[i], RateQPS: rate, Baseline: base, NoC6: noC6}
		p.AvgLatReductionPct = pctOver(base.EndToEnd.AvgUS, noC6.EndToEnd.AvgUS)
		p.TailLatReductionPct = pctOver(base.EndToEnd.P99US, noC6.EndToEnd.P99US)
		// Fig. 12(d)/13(d): map the NoC6 config's C1 residency to C6A.
		p.AvgPReductionPct = power.TurboSavings(
			noC6.Residency[cstate.C1], noC6.Residency[cstate.C1E],
			noC6.AvgCorePowerW, vec)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Figure12 evaluates MySQL at low/mid/high request rates (paper Fig. 12).
func Figure12(o Options) (ServiceEvalResult, error) {
	return serviceEval(o, workload.MySQL(),
		[]string{"low", "mid", "high"}, []float64{2e3, 6e3, 12e3})
}

// Figure13 evaluates Kafka at low/high request rates (paper Fig. 13).
func Figure13(o Options) (ServiceEvalResult, error) {
	return serviceEval(o, workload.Kafka(),
		[]string{"low", "high"}, []float64{3e3, 150e3})
}

// Table renders the service evaluation.
func (r ServiceEvalResult) Table() *report.Table {
	t := &report.Table{
		Title: fmt.Sprintf("Fig. 12/13-style evaluation of %s", r.Service),
		Headers: []string{"Rate", "Base C0/C1/C6", "NoC6 C0/C1", "dAvgLat", "dTailLat",
			"AW AvgP reduction"},
	}
	for _, p := range r.Points {
		t.AddRow(
			fmt.Sprintf("%s (%.0fK)", p.Label, p.RateQPS/1000),
			fmt.Sprintf("%s/%s/%s",
				report.Pct(p.Baseline.Residency[cstate.C0]),
				report.Pct(p.Baseline.Residency[cstate.C1]),
				report.Pct(p.Baseline.Residency[cstate.C6])),
			fmt.Sprintf("%s/%s",
				report.Pct(p.NoC6.Residency[cstate.C0]),
				report.Pct(p.NoC6.Residency[cstate.C1])),
			fmt.Sprintf("%.1f%%", p.AvgLatReductionPct),
			fmt.Sprintf("%.1f%%", p.TailLatReductionPct),
			fmt.Sprintf("%.1f%%", p.AvgPReductionPct),
		)
	}
	switch r.Service {
	case "mysql":
		t.Notes = append(t.Notes, "paper: >=40% baseline C6 residency; 4-10% latency gain from disabling C6; 22-56% AW power reduction")
	case "kafka":
		t.Notes = append(t.Notes, "paper: >60% C6 residency at low rate; 4-5% latency gain; >56% AW power reduction")
	}
	return t
}
