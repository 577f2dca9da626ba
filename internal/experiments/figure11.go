package experiments

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

// Figure11Result studies the interplay of Turbo and idle states
// (paper Fig. 11): four legacy configurations (±Turbo x ±C1E, C6 always
// disabled) against AW's C6A with and without Turbo.
type Figure11Result struct {
	Configs []governor.Config
	Points  []Figure11Point
}

// Figure11Point is one load point across all six configurations.
type Figure11Point struct {
	RateQPS float64
	Results []server.Result // parallel to Configs
}

// Figure11 runs the Turbo analysis.
func Figure11(o Options) (Figure11Result, error) {
	o = o.normalize()
	out := Figure11Result{Configs: []governor.Config{
		governor.NTNoC6,         // No Turbo, C1E enabled
		governor.NTNoC6NoC1E,    // No Turbo, C1 only
		governor.NTC6ANoC6NoC1E, // No Turbo, AW C6A
		governor.TNoC6,          // Turbo, C1E enabled
		governor.TNoC6NoC1E,     // Turbo, C1 only
		governor.TC6ANoC6NoC1E,  // Turbo, AW C6A
	}}
	profile := workload.Memcached()
	grid, err := o.serviceGrid(profile, o.Rates, out.Configs, nil)
	if err != nil {
		return out, err
	}
	for i, rate := range o.Rates {
		out.Points = append(out.Points, Figure11Point{RateQPS: rate, Results: grid[i]})
	}
	return out, nil
}

// result returns the point's result for a named config.
func (r Figure11Result) result(p Figure11Point, name string) server.Result {
	for i, c := range r.Configs {
		if c.Name == name {
			return p.Results[i]
		}
	}
	panic("experiments: unknown config " + name)
}

// Table renders the Fig. 11 latency matrix.
func (r Figure11Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Fig. 11: Avg / p99 end-to-end latency (us) - Turbo vs idle-state interplay",
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
	t.Notes = append(t.Notes,
		"paper: T_No_C6,No_C1E gains nothing over NT (no thermal headroom);",
		"AW's T_C6A combines Turbo headroom with C1-class transition latency")
	return t
}

// TurboFractionTable shows how much Turbo each configuration could use —
// the thermal-capacitance mechanism of Sec. 7.3.
func (r Figure11Result) TurboFractionTable() *report.Table {
	t := &report.Table{
		Title:   "Fig. 11 companion: Turbo residency (share of busy time boosted)",
		Headers: []string{"Rate (KQPS)", "T_No_C6", "T_No_C6,No_C1E", "T_C6A,No_C6,No_C1E"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000),
			report.Pct(r.result(p, "T_No_C6").TurboFraction),
			report.Pct(r.result(p, "T_No_C6,No_C1E").TurboFraction),
			report.Pct(r.result(p, "T_C6A,No_C6,No_C1E").TurboFraction))
	}
	return t
}
