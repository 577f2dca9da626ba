package server

import (
	"testing"

	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchServiceCfg is the BenchmarkRunService configuration: the paper's
// platform (20 Skylake CPUs, Baseline C-state config) serving Memcached
// at a mid-curve 200 KQPS for a 50 ms window. One iteration is one full
// construct+warmup+measure run, the unit every experiment sweep multiplies.
func benchServiceCfg() Config {
	return Config{
		Platform:   governor.Baseline,
		Profile:    workload.Memcached(),
		RatePerSec: 200e3,
		Duration:   50 * sim.Millisecond,
		Warmup:     10 * sim.Millisecond,
		Seed:       1,
	}
}

// BenchmarkRunService measures end-to-end single-server simulation
// wall-clock: the dominant cost of every reproduced table and figure.
func BenchmarkRunService(b *testing.B) {
	cfg := benchServiceCfg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunConfig(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerSteadyState isolates the per-event hot path: one
// pre-warmed instance advanced in 1 ms slices, excluding construction
// and collection. This is the loop the zero-allocation work targets.
// OS noise is off so the loop is the request path alone, the work this
// benchmark has always timed.
func BenchmarkServerSteadyState(b *testing.B) {
	cfg := benchServiceCfg()
	cfg.OSNoisePeriod = -1
	s := warmInstance(b, cfg, sim.Millisecond).s
	horizon := s.eng.Now()
	done := s.col.completed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon += sim.Millisecond
		s.eng.RunTo(horizon)
	}
	b.StopTimer()
	if s.col.completed == done {
		b.Fatal("no request completed in the measured slices")
	}
}
