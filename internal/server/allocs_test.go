package server

import (
	"testing"

	"repro/internal/sim"
)

// warmInstance returns an instance of cfg after its first interval: the
// warmup plus a measured window of the given length. The collector
// keeps measuring afterwards, so RunTo slices on its engine drive the
// full hot path, latency hooks included.
func warmInstance(tb testing.TB, cfg Config, window sim.Time) *Instance {
	ins, err := NewInstance(cfg, false)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ins.RunInterval(window, cfg.RatePerSec); err != nil {
		tb.Fatal(err)
	}
	return ins
}

// TestSteadyStateZeroAllocs pins the zero-allocation property of the
// server hot path: once a simulation is warm (rings sized, histograms
// grown, event free list populated), advancing simulated time must not
// allocate at all — requests live in per-core rings, events are recycled
// typed-kind structs, and the collector hooks append nothing. A nonzero
// value here means a future change reintroduced per-event garbage.
func TestSteadyStateZeroAllocs(t *testing.T) {
	// A 40 ms first window lets every latency histogram see its tail
	// buckets before the measured slices.
	s := warmInstance(t, benchServiceCfg(), 40*sim.Millisecond).s
	horizon := s.eng.Now()
	done := s.col.completed
	avg := testing.AllocsPerRun(20, func() {
		horizon += sim.Millisecond
		s.eng.RunTo(horizon)
	})
	if avg != 0 {
		t.Fatalf("steady-state hot path allocates %v allocs per simulated ms, want 0", avg)
	}
	if s.col.completed == done {
		t.Fatal("no request completed in the measured slices")
	}
}
