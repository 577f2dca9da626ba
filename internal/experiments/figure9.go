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

// Figure9Result compares the three No-Turbo tuned configurations
// (paper Fig. 9): NT_Baseline, NT_No_C6, NT_No_C6,No_C1E.
type Figure9Result struct {
	Configs []governor.Config
	// Points[rate][config].
	Points []Figure9Point
}

// Figure9Point is one load point across the three configurations.
type Figure9Point struct {
	RateQPS float64
	Results []server.Result // parallel to Configs
}

// Figure9 runs the tuned-configuration study.
func Figure9(o Options) (Figure9Result, error) {
	o = o.normalize()
	out := Figure9Result{
		Configs: []governor.Config{governor.NTBaseline, governor.NTNoC6, governor.NTNoC6NoC1E},
	}
	profile := workload.Memcached()
	grid, err := o.serviceGrid(profile, o.Rates, out.Configs, nil)
	if err != nil {
		return out, err
	}
	for i, rate := range o.Rates {
		out.Points = append(out.Points, Figure9Point{RateQPS: rate, Results: grid[i]})
	}
	return out, nil
}

// LatencyTable renders Fig. 9(a,b): average and tail latency.
func (r Figure9Result) LatencyTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 9(a,b): Avg / p99 end-to-end latency (us) per tuned configuration",
		Headers: []string{"Rate (KQPS)"},
	}
	for _, c := range r.Configs {
		t.Headers = append(t.Headers, c.Name+" avg", c.Name+" p99")
	}
	for _, p := range r.Points {
		row := []any{fmt.Sprintf("%.0f", p.RateQPS/1000)}
		for _, res := range p.Results {
			row = append(row, report.US(res.EndToEnd.AvgUS), report.US(res.EndToEnd.P99US))
		}
		t.AddRow(row...)
	}
	return t
}

// PowerTable renders Fig. 9(c): package power.
func (r Figure9Result) PowerTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 9(c): Package power (W) per tuned configuration",
		Headers: []string{"Rate (KQPS)"},
	}
	for _, c := range r.Configs {
		t.Headers = append(t.Headers, c.Name)
	}
	for _, p := range r.Points {
		row := []any{fmt.Sprintf("%.0f", p.RateQPS/1000)}
		for _, res := range p.Results {
			row = append(row, report.W(res.PackagePowerW))
		}
		t.AddRow(row...)
	}
	return t
}

// ResidencyTable renders Fig. 9(d).
func (r Figure9Result) ResidencyTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 9(d): C-state residency per tuned configuration",
		Headers: []string{"Rate (KQPS)", "Config", "C0", "C1", "C1E", "C6"},
	}
	for _, p := range r.Points {
		for i, res := range p.Results {
			t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), r.Configs[i].Name,
				report.Pct(res.Residency[cstate.C0]),
				report.Pct(res.Residency[cstate.C1]),
				report.Pct(res.Residency[cstate.C1E]),
				report.Pct(res.Residency[cstate.C6]))
		}
	}
	return t
}

// Figure10Result compares AW against the three tuned configurations
// (paper Fig. 10): power reduction plus avg/tail latency reduction.
type Figure10Result struct {
	Configs []governor.Config
	Points  []Figure10Point
	// AvgReductionPct per config (paper: 23.5%, 28.6%, 35.3%).
	AvgReductionPct []float64
}

// Figure10Point is one load point.
type Figure10Point struct {
	RateQPS float64
	AW      server.Result
	// Per tuned config, parallel to Configs:
	PowerReductionPct   []float64
	AvgLatReductionPct  []float64
	TailLatReductionPct []float64
}

// Figure10 runs AW (Turbo enabled) against the three No-Turbo configs.
func Figure10(o Options) (Figure10Result, error) {
	o = o.normalize()
	out := Figure10Result{
		Configs: []governor.Config{governor.NTBaseline, governor.NTNoC6, governor.NTNoC6NoC1E},
	}
	profile := workload.Memcached()
	cat := cstate.Skylake()
	vec := power.VectorFromCatalog(cat)
	// Column 0 is AW, the rest the tuned configs in order.
	grid, err := o.serviceGrid(profile, o.Rates, append([]governor.Config{governor.AW}, out.Configs...), nil)
	if err != nil {
		return out, err
	}
	for ri, rate := range o.Rates {
		aw := grid[ri][0]
		p := Figure10Point{RateQPS: rate, AW: aw}
		for _, res := range grid[ri][1:] {
			// Power reduction via the Sec. 6.2 transform applied to the
			// tuned config's measured residencies: its C1/C1E time runs
			// at C6A/C6AE power under AW.
			red := power.TurboSavings(res.Residency[cstate.C1], res.Residency[cstate.C1E],
				res.AvgCorePowerW, vec)
			p.PowerReductionPct = append(p.PowerReductionPct, red)
			p.AvgLatReductionPct = append(p.AvgLatReductionPct,
				pctOver(res.EndToEnd.AvgUS, aw.EndToEnd.AvgUS))
			p.TailLatReductionPct = append(p.TailLatReductionPct,
				pctOver(res.EndToEnd.P99US, aw.EndToEnd.P99US))
		}
		out.Points = append(out.Points, p)
	}
	sums := make([]float64, len(out.Configs))
	for _, p := range out.Points {
		for i := range out.Configs {
			sums[i] += p.PowerReductionPct[i]
		}
	}
	for i := range sums {
		out.AvgReductionPct = append(out.AvgReductionPct, sums[i]/float64(len(out.Points)))
	}
	return out, nil
}

// Table renders Fig. 10.
func (r Figure10Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 10: AW power and latency reduction over tuned configurations",
		Headers: []string{"Rate (KQPS)"},
	}
	for _, c := range r.Configs {
		t.Headers = append(t.Headers, c.Name+" dP", c.Name+" dAvg", c.Name+" dTail")
	}
	for _, p := range r.Points {
		row := []any{fmt.Sprintf("%.0f", p.RateQPS/1000)}
		for i := range r.Configs {
			row = append(row,
				fmt.Sprintf("%.1f%%", p.PowerReductionPct[i]),
				fmt.Sprintf("%.1f%%", p.AvgLatReductionPct[i]),
				fmt.Sprintf("%.1f%%", p.TailLatReductionPct[i]))
		}
		t.AddRow(row...)
	}
	avg := []any{"Avg"}
	for i := range r.Configs {
		avg = append(avg, fmt.Sprintf("%.1f%%", r.AvgReductionPct[i]), "", "")
	}
	t.AddRow(avg...)
	t.Notes = append(t.Notes, "paper avg power reductions: 23.5% / 28.6% / 35.3%")
	return t
}
