package experiments

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PkgIdleResult extends the paper toward its companion work (AgilePkgC,
// reference [9]): core C-states alone leave the uncore burning ~30 W.
// A package idle state that engages when all cores are idle recovers
// uncore power — but only if its entry hysteresis is agile enough to fit
// inside the short all-idle windows that latency-critical load leaves.
type PkgIdleResult struct {
	Points []PkgIdlePoint
}

// PkgIdlePoint is one (rate, hysteresis) measurement under the AW
// platform configuration.
type PkgIdlePoint struct {
	RateQPS         float64
	EntryDelay      sim.Time
	PkgIdleFraction float64
	UncoreAvgW      float64
	PackagePowerW   float64
}

// PkgIdle sweeps package-state entry hysteresis at two load levels.
func PkgIdle(o Options) (PkgIdleResult, error) {
	o = o.normalize()
	var out PkgIdleResult
	profile := workload.Memcached()
	rates := []float64{o.Rates[0]}
	if len(o.Rates) > 1 {
		rates = append(rates, o.Rates[len(o.Rates)/2])
	}
	delays := []sim.Time{600 * sim.Microsecond, 100 * sim.Microsecond, 10 * sim.Microsecond}
	points := make([]PkgIdlePoint, len(rates)*len(delays))
	err := parallelMap(len(points), func(i int) error {
		rate, delay := rates[i/len(delays)], delays[i%len(delays)]
		cfg := o.serviceConfig(governor.AW, profile, rate)
		cfg.PkgIdleEnabled = true
		cfg.PkgEntryDelay = delay
		res, err := run(cfg)
		if err != nil {
			return err
		}
		points[i] = PkgIdlePoint{
			RateQPS: rate, EntryDelay: delay,
			PkgIdleFraction: res.PkgIdleFraction,
			UncoreAvgW:      res.UncoreAvgW,
			PackagePowerW:   res.PackagePowerW,
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Points = points
	return out, nil
}

// Table renders the package idle study.
func (r PkgIdleResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Extension: package idle state on top of AW (AgilePkgC direction)",
		Headers: []string{"Rate (KQPS)", "Entry hysteresis", "Pkg-idle residency", "Uncore power", "Package power"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), p.EntryDelay.String(),
			report.Pct(p.PkgIdleFraction), report.W(p.UncoreAvgW), report.W(p.PackagePowerW))
	}
	t.Notes = append(t.Notes,
		"legacy hysteresis (600us) barely engages under microsecond-scale idle;",
		"an agile package state (10us) recovers a large uncore share at low load")
	return t
}
