package server

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// quickCfg returns a short-duration config for tests.
func quickCfg(platform governor.Config, rate float64) Config {
	return Config{
		Platform:   platform,
		Profile:    workload.Memcached(),
		RatePerSec: rate,
		Duration:   150 * sim.Millisecond,
		Warmup:     20 * sim.Millisecond,
		Seed:       42,
	}
}

func run(t *testing.T, cfg Config) Result {
	t.Helper()
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestResidencySumsToOne(t *testing.T) {
	res := run(t, quickCfg(governor.Baseline, 100e3))
	sum := 0.0
	for _, v := range res.Residency {
		if v < 0 {
			t.Fatalf("negative residency: %v", res.Residency)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("residency sums to %v", sum)
	}
}

func TestThroughputMatchesOfferedLoad(t *testing.T) {
	res := run(t, quickCfg(governor.Baseline, 200e3))
	if math.Abs(res.CompletedPerSec-200e3)/200e3 > 0.05 {
		t.Fatalf("throughput = %v, want ~200K", res.CompletedPerSec)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, quickCfg(governor.Baseline, 100e3))
	b := run(t, quickCfg(governor.Baseline, 100e3))
	if a.AvgCorePowerW != b.AvgCorePowerW || a.Server.P99US != b.Server.P99US ||
		a.Residency != b.Residency {
		t.Fatal("same seed produced different results")
	}
	c := quickCfg(governor.Baseline, 100e3)
	c.Seed = 43
	other := run(t, c)
	if other.AvgCorePowerW == a.AvgCorePowerW && other.Server.P99US == a.Server.P99US {
		t.Fatal("different seed produced identical results (suspicious)")
	}
}

func TestAWReducesPowerAtEveryLoad(t *testing.T) {
	for _, rate := range []float64{10e3, 100e3, 500e3} {
		base := run(t, quickCfg(governor.Baseline, rate))
		aw := run(t, quickCfg(governor.AW, rate))
		if aw.AvgCorePowerW >= base.AvgCorePowerW {
			t.Errorf("rate %v: AW power %v >= baseline %v", rate, aw.AvgCorePowerW, base.AvgCorePowerW)
		}
	}
}

func TestAWLatencyWithinOnePercent(t *testing.T) {
	// Paper claim: <1% end-to-end performance degradation.
	for _, rate := range []float64{50e3, 300e3} {
		base := run(t, quickCfg(governor.Baseline, rate))
		aw := run(t, quickCfg(governor.AW, rate))
		deg := (aw.EndToEnd.AvgUS - base.EndToEnd.AvgUS) / base.EndToEnd.AvgUS
		if deg > 0.01 {
			t.Errorf("rate %v: end-to-end degradation %.2f%% > 1%%", rate, deg*100)
		}
	}
}

func TestSavingsDeclineWithLoad(t *testing.T) {
	// Paper Fig. 8(b): AW's relative saving is larger at low-mid load
	// than at the highest load.
	savings := func(rate float64) float64 {
		base := run(t, quickCfg(governor.Baseline, rate))
		aw := run(t, quickCfg(governor.AW, rate))
		return (base.AvgCorePowerW - aw.AvgCorePowerW) / base.AvgCorePowerW
	}
	mid := savings(100e3)
	high := savings(500e3)
	if !(mid > high) {
		t.Fatalf("savings not declining: mid=%v high=%v", mid, high)
	}
	if high < 0.05 {
		t.Fatalf("high-load savings %v too small (paper: ~10%%)", high)
	}
}

func TestC6ResidencyAtLowLoadOnly(t *testing.T) {
	// Paper Fig. 8(a): deep C6 residency appears at low load and vanishes
	// as load grows.
	low := run(t, quickCfg(governor.Baseline, 10e3))
	high := run(t, quickCfg(governor.Baseline, 500e3))
	if low.Residency[cstate.C6] < 0.05 {
		t.Errorf("low-load C6 residency = %v, want noticeable", low.Residency[cstate.C6])
	}
	if high.Residency[cstate.C6] > 0.01 {
		t.Errorf("high-load C6 residency = %v, want ~0", high.Residency[cstate.C6])
	}
}

func TestDisabledStatesNeverUsed(t *testing.T) {
	res := run(t, quickCfg(governor.NTNoC6NoC1E, 100e3))
	if res.Residency[cstate.C6] != 0 || res.Residency[cstate.C1E] != 0 ||
		res.Residency[cstate.C6A] != 0 || res.Residency[cstate.C6AE] != 0 {
		t.Fatalf("disabled states have residency: %v", res.Residency)
	}
	if res.TransitionsPerSec[cstate.C6] != 0 {
		t.Fatal("transitions into disabled C6")
	}
}

func TestDisablingC6ImprovesLowLoadLatency(t *testing.T) {
	// Paper Fig. 9/12/13: C6's 133us wake-up hurts latency at low load.
	withC6 := run(t, quickCfg(governor.NTBaseline, 10e3))
	noC6 := run(t, quickCfg(governor.NTNoC6, 10e3))
	if noC6.Server.AvgUS >= withC6.Server.AvgUS {
		t.Fatalf("disabling C6 did not improve avg latency: %v vs %v",
			noC6.Server.AvgUS, withC6.Server.AvgUS)
	}
	if noC6.Server.P99US >= withC6.Server.P99US {
		t.Fatalf("disabling C6 did not improve tail: %v vs %v",
			noC6.Server.P99US, withC6.Server.P99US)
	}
	// But it costs power.
	if noC6.AvgCorePowerW <= withC6.AvgCorePowerW {
		t.Fatal("disabling C6 did not raise power")
	}
}

func TestDisablingC1ETradesPowerForLatency(t *testing.T) {
	// Paper Fig. 9: NT_No_C6,No_C1E has the best latency but the highest
	// power of the tuned configurations.
	noC6 := run(t, quickCfg(governor.NTNoC6, 300e3))
	noC1E := run(t, quickCfg(governor.NTNoC6NoC1E, 300e3))
	if noC1E.Server.AvgUS >= noC6.Server.AvgUS {
		t.Fatalf("disabling C1E did not improve avg latency: %v vs %v",
			noC1E.Server.AvgUS, noC6.Server.AvgUS)
	}
	if noC1E.AvgCorePowerW <= noC6.AvgCorePowerW {
		t.Fatal("disabling C1E did not raise power")
	}
}

func TestAWC6AConfigBeatsC1OnPowerAtSameLatency(t *testing.T) {
	// Paper Sec. 7.2: C6A provides C1-class latency at C1E-or-better
	// power.
	c1 := run(t, quickCfg(governor.TNoC6NoC1E, 200e3))
	aw := run(t, quickCfg(governor.TC6ANoC6NoC1E, 200e3))
	if aw.AvgCorePowerW >= c1.AvgCorePowerW*0.6 {
		t.Fatalf("C6A power %v not well below C1 config %v", aw.AvgCorePowerW, c1.AvgCorePowerW)
	}
	deg := (aw.Server.AvgUS - c1.Server.AvgUS) / c1.Server.AvgUS
	if deg > 0.02 {
		t.Fatalf("C6A latency degradation %v > 2%%", deg)
	}
}

func TestTurboBudgetBindsForC1Parked(t *testing.T) {
	// Paper Sec. 7.3: parking idle cores in C1 starves Turbo, while C6A
	// leaves thermal headroom.
	c1 := run(t, quickCfg(governor.TNoC6NoC1E, 500e3))
	aw := run(t, quickCfg(governor.TC6ANoC6NoC1E, 500e3))
	if aw.TurboFraction <= c1.TurboFraction {
		t.Fatalf("AW turbo fraction %v not above C1-parked %v", aw.TurboFraction, c1.TurboFraction)
	}
}

func TestSnoopTrafficRaisesIdlePower(t *testing.T) {
	cfg := quickCfg(governor.TC6ANoC6NoC1E, 10e3)
	quiet := run(t, cfg)
	cfg.SnoopRatePerSec = 200e3 // 20% duty at 1us per snoop
	noisy := run(t, cfg)
	if noisy.AvgCorePowerW <= quiet.AvgCorePowerW {
		t.Fatalf("snoop traffic did not raise power: %v vs %v",
			noisy.AvgCorePowerW, quiet.AvgCorePowerW)
	}
}

func TestZeroRateIdlesCompletely(t *testing.T) {
	cfg := quickCfg(governor.NTBaseline, 0)
	cfg.OSNoisePeriod = -1 // disable noise too
	res := run(t, cfg)
	if res.CompletedPerSec != 0 {
		t.Fatal("completions with zero load")
	}
	// All time in the deepest state after the governor learns.
	if res.Residency[cstate.C0] > 0.05 {
		t.Fatalf("C0 residency %v with no load", res.Residency[cstate.C0])
	}
	// Power ~ C6-or-C1 idle floor.
	if res.AvgCorePowerW > 1.5 {
		t.Fatalf("idle power %v too high", res.AvgCorePowerW)
	}
}

func TestEndToEndIncludesNetwork(t *testing.T) {
	res := run(t, quickCfg(governor.Baseline, 100e3))
	if res.EndToEnd.AvgUS < res.Server.AvgUS+100 {
		t.Fatalf("end-to-end %v does not include ~117us network over server %v",
			res.EndToEnd.AvgUS, res.Server.AvgUS)
	}
}

func TestFixedFreqSlowsService(t *testing.T) {
	// Fig. 8(d) methodology: the same run at 2.0 vs 2.2 GHz.
	cfg := quickCfg(governor.NTNoC6NoC1E, 300e3)
	cfg.FixedFreqHz = 2.0e9
	slow := run(t, cfg)
	cfg.FixedFreqHz = 2.2e9
	fast := run(t, cfg)
	if fast.Server.AvgUS >= slow.Server.AvgUS {
		t.Fatalf("higher frequency did not reduce latency: %v vs %v",
			fast.Server.AvgUS, slow.Server.AvgUS)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	_, err := RunConfig(Config{Cores: -1, Platform: governor.Baseline, Profile: workload.Memcached()})
	if err == nil {
		t.Fatal("negative cores accepted")
	}
	bad := quickCfg(governor.Config{Name: "bad", Menu: []cstate.ID{cstate.C1, cstate.C6A}}, 1000)
	if _, err := RunConfig(bad); err == nil {
		t.Fatal("invalid platform accepted")
	}
	cfg := quickCfg(governor.Baseline, -5)
	if _, err := RunConfig(cfg); err == nil {
		t.Fatal("negative rate accepted")
	}
	bursty := quickCfg(governor.Baseline, 0)
	bursty.LoadGen = LoadBursty
	if _, err := RunConfig(bursty); err == nil || !strings.Contains(err.Error(), "bursty load needs RatePerSec > 0") {
		t.Fatalf("bursty load at zero rate: err = %v", err)
	}
}

func TestTransitionsCounted(t *testing.T) {
	res := run(t, quickCfg(governor.Baseline, 100e3))
	var total float64
	for _, v := range res.TransitionsPerSec {
		total += v
	}
	if total <= 0 {
		t.Fatal("no transitions recorded")
	}
	// C0 entries should roughly match idle-state entries.
	if res.TransitionsPerSec[cstate.C0] <= 0 {
		t.Fatal("no C0 transitions")
	}
}

func TestMySQLProfileRuns(t *testing.T) {
	cfg := Config{
		Platform: governor.KVBaseline, Profile: workload.MySQL(),
		RatePerSec: 6e3, Duration: 200 * sim.Millisecond,
		Warmup: 20 * sim.Millisecond, Seed: 7,
	}
	res := run(t, cfg)
	// Paper Fig. 12(a): >= 40% C6 residency for MySQL baseline.
	if res.Residency[cstate.C6] < 0.30 {
		t.Errorf("MySQL C6 residency = %v, want >= ~0.4", res.Residency[cstate.C6])
	}
}

func TestKafkaProfileRuns(t *testing.T) {
	cfg := Config{
		Platform: governor.KVBaseline, Profile: workload.Kafka(),
		RatePerSec: 3e3, Duration: 200 * sim.Millisecond,
		Warmup: 20 * sim.Millisecond, Seed: 7,
	}
	res := run(t, cfg)
	// Paper Fig. 13(a): majority C6 residency at low Kafka load.
	if res.Residency[cstate.C6] < 0.40 {
		t.Errorf("Kafka C6 residency = %v, want majority", res.Residency[cstate.C6])
	}
}
