package runner

import (
	"testing"

	"repro/internal/sim"
)

// keySink keeps benchmarked key results live.
var keySink string

// BenchmarkTimelineKey measures memo keying of one node's 24-interval
// day (BenchmarkRunScenario100K's epoch count), the key every replica
// timeline pays: "append" is the one-shot AppendTimelineKey into a
// reused buffer, and "string" the standalone TimelineKey.
func BenchmarkTimelineKey(b *testing.B) {
	spec := TimelineSpec{Node: quickCfg(), Park: true, Intervals: make([]Interval, 24)}
	for i := range spec.Intervals {
		spec.Intervals[i] = Interval{Window: 2 * sim.Millisecond, Rate: float64(i+1) * 10e3}
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = AppendTimelineKey(buf[:0], spec)
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keySink, _ = TimelineKey(spec)
		}
	})
}

// BenchmarkRunMemoHit measures a memoized Run: keying plus the sharded
// single-flight lookup, no simulation.
func BenchmarkRunMemoHit(b *testing.B) {
	r := New(1)
	cfg := quickCfg()
	if _, err := r.Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunTimelineMemoHit is BenchmarkRunMemoHit for a memoized
// three-interval timeline.
func BenchmarkRunTimelineMemoHit(b *testing.B) {
	r := New(1)
	spec := timelineSpec()
	if _, err := r.RunTimeline(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunTimeline(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunMemoMiss measures a Run that misses: keying, slot
// creation and one short simulation (2 cores, 1ms measured). Each
// iteration takes a fresh seed on a fresh Runner, so the cache never
// hits and never grows.
func BenchmarkRunMemoMiss(b *testing.B) {
	cfg := quickCfg()
	cfg.Cores = 2
	cfg.RatePerSec = 20e3
	cfg.Duration = sim.Millisecond
	cfg.Warmup = sim.Millisecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := New(1).Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimelineCursorStep measures one healthy 1 ms interval at
// 100K QPS on a warm cursor, the closed-loop engine's per-class epoch
// step: fault installation plus the instance's interval simulation.
func BenchmarkTimelineCursorStep(b *testing.B) {
	tc, err := NewCursor(quickCfg(), true)
	if err != nil {
		b.Fatal(err)
	}
	iv := Interval{Window: sim.Millisecond, Rate: 100e3}
	if _, err := tc.Step(iv); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Step(iv); err != nil {
			b.Fatal(err)
		}
	}
}
