package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file holds ablation studies for the design choices DESIGN.md
// calls out: the idle-governor policy, the UFPG zone count (latency vs
// in-rush), the C6A power budget components, and the OS-noise assumption.

// GovernorAblationResult compares idle-selection policies under the AW
// configuration.
type GovernorAblationResult struct {
	Points []GovernorAblationPoint
}

// GovernorAblationPoint is one (rate, policy) measurement.
type GovernorAblationPoint struct {
	RateQPS       float64
	Policy        string
	AvgCorePowerW float64
	AvgUS, P99US  float64
}

// GovernorAblation sweeps the three governor policies.
func GovernorAblation(o Options) (GovernorAblationResult, error) {
	o = o.normalize()
	var out GovernorAblationResult
	profile := workload.Memcached()
	policies := []string{governor.PolicyMenu, governor.PolicyInterval, governor.PolicyStatic, governor.PolicyLadder}
	points := make([]GovernorAblationPoint, len(o.Rates)*len(policies))
	err := parallelMap(len(points), func(i int) error {
		rate, policy := o.Rates[i/len(policies)], policies[i%len(policies)]
		cfg := o.serviceConfig(governor.Baseline, profile, rate)
		cfg.GovernorPolicy = policy
		res, err := run(cfg)
		if err != nil {
			return err
		}
		points[i] = GovernorAblationPoint{
			RateQPS: rate, Policy: policy,
			AvgCorePowerW: res.AvgCorePowerW,
			AvgUS:         res.EndToEnd.AvgUS, P99US: res.EndToEnd.P99US,
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Points = points
	return out, nil
}

// Table renders the governor ablation.
func (r GovernorAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: idle-governor policy (Baseline config, Memcached)",
		Headers: []string{"Rate (KQPS)", "Policy", "Core power", "Avg e2e", "p99 e2e"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.RateQPS/1000), p.Policy,
			report.W(p.AvgCorePowerW), report.US(p.AvgUS), report.US(p.P99US))
	}
	t.Notes = append(t.Notes,
		"static-deepest pays the 87us+46us C6 flows on every wake: at mid load the",
		"transition thrash costs both latency and power; menu tracks the paper's baseline")
	return t
}

// ZoneAblationResult studies the UFPG zone count: fewer zones wake
// faster only if the in-rush envelope is ignored; the paper's five-zone
// split is the smallest count that respects the AVX-calibrated limit
// while staying under the 70ns budget.
type ZoneAblationResult struct {
	Rows []ZoneAblationRow
}

// ZoneAblationRow is one zone-count configuration.
type ZoneAblationRow struct {
	Zones       int
	WakeLatency sim.Time
	PeakInrush  float64
	MeetsInrush bool
	ExitLatency sim.Time
	RoundTripOK bool // < 100ns total with entry
}

// ZoneAblation sweeps UFPG zone counts from 1 to 10, holding total
// capacitance at the paper's 4.5x-AVX and waking each zone over one
// fixed AVX window (15 ns) — the design alternative the paper rejects in
// favor of capacitance-proportional staggering.
func ZoneAblation() ZoneAblationResult {
	var out ZoneAblationResult
	for n := 1; n <= 10; n++ {
		u := core.NewUFPG()
		per := u.TotalRelativeCapacitance() / float64(n)
		zones := make([]core.Zone, n)
		for i := range zones {
			zones[i] = core.Zone{
				Name:                fmt.Sprintf("zone-%d", i),
				RelativeCapacitance: per,
				WindowOverride:      u.PerZoneStagger,
			}
		}
		u.Zones = zones
		ccsm := core.NewCCSM()
		pma := core.NewPMA(u, ccsm)
		exit := pma.ExitLatency()
		rt := pma.RoundTripLatency(false)
		out.Rows = append(out.Rows, ZoneAblationRow{
			Zones:       n,
			WakeLatency: u.WakeLatency(),
			PeakInrush:  u.PeakInrush(),
			MeetsInrush: u.CheckInrush() == nil,
			ExitLatency: exit,
			RoundTripOK: rt < 100*sim.Nanosecond,
		})
	}
	return out
}

// Table renders the zone ablation.
func (r ZoneAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: UFPG zone count (fixed 15ns window per zone)",
		Headers: []string{"Zones", "Wake latency", "Peak in-rush (xAVX)", "In-rush OK", "C6A exit", "<100ns RT"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Zones, row.WakeLatency.String(),
			fmt.Sprintf("%.2f", row.PeakInrush),
			fmt.Sprintf("%v", row.MeetsInrush),
			row.ExitLatency.String(), fmt.Sprintf("%v", row.RoundTripOK))
	}
	t.Notes = append(t.Notes,
		"few zones violate the AVX in-rush envelope; many zones waste wake latency;",
		"the paper's design staggers 5 zones proportionally (~68ns, in-rush = 1.0x)")
	return t
}

// PowerBudgetAblationResult decomposes C6A power and shows the
// sensitivity to each paper assumption.
type PowerBudgetAblationResult struct {
	Rows []PowerBudgetRow
}

// PowerBudgetRow is one what-if variant of the AW design.
type PowerBudgetRow struct {
	Variant                string
	C6AWattsLo, C6AWattsHi float64
}

// PowerBudgetAblation evaluates design variants of the AW core.
func PowerBudgetAblation() PowerBudgetAblationResult {
	var out PowerBudgetAblationResult
	add := func(name string, arch *core.Architecture) {
		lo, hi := arch.C6APowerRange()
		out.Rows = append(out.Rows, PowerBudgetRow{Variant: name, C6AWattsLo: lo, C6AWattsHi: hi})
	}
	add("paper design", core.NewArchitecture())

	a := core.NewArchitecture()
	a.FIVR.StaticLossW = 0 // ideal regulator
	add("no FIVR static loss", a)

	a = core.NewArchitecture()
	a.UFPG.ResidualLeakageLo, a.UFPG.ResidualLeakageHi = 0.01, 0.02 // better gates
	add("1-2% residual leakage gates", a)

	a = core.NewArchitecture()
	a.CCSM.SleepEfficiencyPnScale = 1 // no sleep-mode benefit at Pn
	add("no Pn sleep-transistor gain", a)

	a = core.NewArchitecture()
	a.CCSM.RestLeakageP1W = 0
	a.CCSM.RestLeakagePnW = 0 // hypothetical: gate tags/controllers too
	add("zero ungated-controller leakage", a)

	return out
}

// Table renders the power-budget ablation.
func (r PowerBudgetAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: C6A power budget sensitivity",
		Headers: []string{"Variant", "C6A power (mW)"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, report.MWRange([2]float64{row.C6AWattsLo, row.C6AWattsHi}))
	}
	t.Notes = append(t.Notes, "FIVR static loss (~100mW) is the single largest C6A component")
	return t
}

// NoiseAblationResult studies the OS-noise assumption that keeps real
// servers out of deep idle (the substitution for kernel ticks and IRQs).
type NoiseAblationResult struct {
	Points []NoiseAblationPoint
}

// NoiseAblationPoint is one noise-period setting.
type NoiseAblationPoint struct {
	NoisePeriod   sim.Time
	C6Residency   float64
	C1EResidency  float64
	AvgCorePowerW float64
}

// NoiseAblation sweeps the background wake-up period at the 10KQPS
// Memcached point (where C6 eligibility is most sensitive to it).
func NoiseAblation(o Options) (NoiseAblationResult, error) {
	o = o.normalize()
	var out NoiseAblationResult
	periods := []sim.Time{-1, 4 * sim.Millisecond, sim.Millisecond, 250 * sim.Microsecond}
	points := make([]NoiseAblationPoint, len(periods))
	err := parallelMap(len(periods), func(i int) error {
		period := periods[i]
		cfg := o.serviceConfig(governor.Baseline, workload.Memcached(), 10e3)
		cfg.OSNoisePeriod = period
		res, err := run(cfg)
		if err != nil {
			return err
		}
		points[i] = NoiseAblationPoint{
			NoisePeriod:   period,
			C6Residency:   res.Residency[cstate.C6],
			C1EResidency:  res.Residency[cstate.C1E],
			AvgCorePowerW: res.AvgCorePowerW,
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	out.Points = points
	return out, nil
}

// Table renders the noise ablation.
func (r NoiseAblationResult) Table() *report.Table {
	t := &report.Table{
		Title:   "Ablation: background OS-noise period (Baseline, Memcached @ 10KQPS)",
		Headers: []string{"Noise period", "C6 residency", "C1E residency", "Core power"},
	}
	for _, p := range r.Points {
		label := "disabled"
		if p.NoisePeriod > 0 {
			label = p.NoisePeriod.String()
		}
		t.AddRow(label, report.Pct(p.C6Residency), report.Pct(p.C1EResidency),
			report.W(p.AvgCorePowerW))
	}
	t.Notes = append(t.Notes,
		"more OS noise -> shorter idle periods -> shallower states (the killer microseconds)")
	return t
}
