package experiments

import (
	"fmt"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

// RaceToHaltResult explores the Sec. 8 observation that "the new C6A
// state could make a simple race-to-halt approach more attractive than
// complex DVFS management": compare
//
//   - pace (DVFS): run every request at the minimum frequency (Pn,
//     ~1 W active) and idle in shallow C1 — the energy-proportional
//     strategy fine-grained DVFS managers approximate;
//   - race+C1: run at base frequency and halt into C1;
//   - race+C6A: run at base frequency and halt into AW's C6A.
type RaceToHaltResult struct {
	Points []RaceToHaltPoint
}

// RaceToHaltPoint is one load level.
type RaceToHaltPoint struct {
	RateQPS float64
	Pace    server.Result
	RaceC1  server.Result
	RaceAW  server.Result
	// EnergyPerRequestMJ for each strategy (millijoules).
	PaceMJ, RaceC1MJ, RaceAWMJ float64
}

// RaceToHalt runs the three strategies across the load sweep.
func RaceToHalt(o Options) (RaceToHaltResult, error) {
	o = o.normalize()
	profile := workload.Memcached()
	var out RaceToHaltResult

	pace := governor.Config{Name: "Pace_Pn_C1", Menu: []cstate.ID{cstate.C1}}
	raceC1 := governor.Config{Name: "Race_P1_C1", Menu: []cstate.ID{cstate.C1}}
	raceAW := governor.Config{Name: "Race_P1_C6A", AgileWatts: true, Menu: []cstate.ID{cstate.C6A}}

	// Pace pins the clock to Pn (the C0 power curve then yields ~1W).
	grid, err := o.serviceGrid(profile, o.Rates,
		[]governor.Config{pace, raceC1, raceAW}, []float64{0.8e9, 0, 0})
	if err != nil {
		return out, err
	}
	for i, rate := range o.Rates {
		p := RaceToHaltPoint{RateQPS: rate, Pace: grid[i][0], RaceC1: grid[i][1], RaceAW: grid[i][2]}
		p.PaceMJ = energyPerRequestMJ(p.Pace)
		p.RaceC1MJ = energyPerRequestMJ(p.RaceC1)
		p.RaceAWMJ = energyPerRequestMJ(p.RaceAW)
		out.Points = append(out.Points, p)
	}
	return out, nil
}

func energyPerRequestMJ(r server.Result) float64 {
	if r.CompletedPerSec <= 0 || r.MeasuredDuration <= 0 {
		return 0
	}
	requests := r.CompletedPerSec * r.MeasuredDuration.Seconds()
	return r.EnergyJ / requests * 1e3
}

// Table renders the race-to-halt comparison.
func (r RaceToHaltResult) Table() *report.Table {
	t := &report.Table{
		Title: "Sec. 8 analysis: race-to-halt with C6A vs DVFS pacing (Memcached)",
		Headers: []string{"Rate (KQPS)",
			"Pace mJ/req", "Race+C1 mJ/req", "Race+C6A mJ/req",
			"Pace p99", "Race+C1 p99", "Race+C6A p99"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000),
			fmt.Sprintf("%.3f", p.PaceMJ),
			fmt.Sprintf("%.3f", p.RaceC1MJ),
			fmt.Sprintf("%.3f", p.RaceAWMJ),
			report.US(p.Pace.EndToEnd.P99US),
			report.US(p.RaceC1.EndToEnd.P99US),
			report.US(p.RaceAW.EndToEnd.P99US))
	}
	t.Notes = append(t.Notes,
		"with only C1 to halt into, pacing at Pn can compete on energy;",
		"C6A's ~0.3W halt target makes race-to-halt win on both energy and latency")
	return t
}
