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

// AMDResult reproduces the Sec. 5.5 argument: AMD EPYC servers running
// latency-critical applications disable the deep CC6 state (per vendor
// tuning guides), paying a large idle-power premium that an AW-style
// C6A state would recover.
type AMDResult struct {
	Points []AMDPoint
}

// AMDPoint is one load level on the EPYC-like platform.
type AMDPoint struct {
	RateQPS float64
	// AllStates: C1 + C2 + CC6 enabled.
	AllStates server.Result
	// Recommended: CC6 disabled ("Global C-State Control" off).
	Recommended server.Result
	// TailReductionPct is the p99 gain from disabling CC6.
	TailReductionPct float64
	// PowerPenaltyPct is the power increase from disabling CC6.
	PowerPenaltyPct float64
	// AWReductionPct is the power AW's C6A would recover from the
	// recommended configuration (C1/C2 residency at C6A/C6AE power).
	AWReductionPct float64
}

// AMD runs the EPYC analysis with Memcached.
func AMD(o Options) (AMDResult, error) {
	o = o.normalize()
	cat := cstate.EPYC()
	vec := power.VectorFromCatalog(cat)
	profile := workload.Memcached()

	all := governor.Config{Name: "EPYC_AllCStates",
		Menu: []cstate.ID{cstate.C1, cstate.C1E, cstate.C6}}
	rec := governor.Config{Name: "EPYC_NoCC6",
		Menu: []cstate.ID{cstate.C1, cstate.C1E}}

	runEPYC := func(cfg governor.Config, rate float64) (server.Result, error) {
		return server.RunConfig(server.Config{
			Catalog:    cat,
			Platform:   cfg,
			Profile:    profile,
			RatePerSec: rate,
			Duration:   o.Duration,
			Warmup:     o.Warmup,
			Seed:       o.Seed,
		})
	}

	// One flat fan-out over rate x {all states, recommended}, highest
	// rate first.
	menus := []governor.Config{all, rec}
	runs := make([]server.Result, len(o.Rates)*len(menus))
	err := parallelMap(len(runs), func(t int) (err error) {
		t = len(runs) - 1 - t
		runs[t], err = runEPYC(menus[t%len(menus)], o.Rates[t/len(menus)])
		return err
	})
	var out AMDResult
	if err != nil {
		return out, err
	}
	for i, rate := range o.Rates {
		allRes, recRes := runs[2*i], runs[2*i+1]
		p := AMDPoint{RateQPS: rate, AllStates: allRes, Recommended: recRes}
		p.TailReductionPct = pctOver(allRes.EndToEnd.P99US, recRes.EndToEnd.P99US)
		p.PowerPenaltyPct = pctOver(recRes.AvgCorePowerW, allRes.AvgCorePowerW)
		p.AWReductionPct = power.TurboSavings(
			recRes.Residency[cstate.C1], recRes.Residency[cstate.C1E],
			recRes.AvgCorePowerW, vec)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

// Table renders the AMD analysis.
func (r AMDResult) Table() *report.Table {
	t := &report.Table{
		Title: "Sec. 5.5: AW benefit on an AMD EPYC-like platform (Memcached)",
		Headers: []string{"Rate (KQPS)", "CC6 residency", "Tail gain (CC6 off)",
			"Power penalty (CC6 off)", "AW recovery"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000),
			report.Pct(p.AllStates.Residency[cstate.C6]),
			fmt.Sprintf("%.1f%%", p.TailReductionPct),
			fmt.Sprintf("%.1f%%", p.PowerPenaltyPct),
			fmt.Sprintf("%.1f%%", p.AWReductionPct))
	}
	t.Notes = append(t.Notes,
		"vendor guides disable CC6 for latency-critical work; AW recovers the idle power",
		"while keeping the low-latency configuration (paper Sec. 5.5)")
	return t
}
