package sim

import (
	"strconv"
	"testing"
)

// BenchmarkEngineChurn measures raw event throughput: schedule+fire one
// event per iteration through a rolling 64-deep queue.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	var fn Handler
	fn = func(now Time) {
		e.Schedule(64, fn)
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineChurnDeep is the same churn through a 1024-deep queue.
// A constant delay makes the queue FIFO: every event joins at the tail,
// the sorted queue's best case whatever its depth.
func BenchmarkEngineChurnDeep(b *testing.B) {
	e := NewEngine()
	var fn Handler
	fn = func(now Time) {
		e.Schedule(1024, fn)
	}
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i), fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineScheduleCancel measures schedule+cancel pairs.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	noop := func(Time) {}
	for i := 0; i < b.N; i++ {
		ev := e.Schedule(1000, noop)
		e.Cancel(ev)
	}
}

// BenchmarkEngineRandomDelay is churn with uniform random delays, so
// each event joins the queue somewhere in the middle: the insertion
// shift grows with the depth, 36 being a node simulation's typical
// pending count.
func BenchmarkEngineRandomDelay(b *testing.B) {
	for _, n := range []int{36, 256, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			e := NewEngine()
			x := uint64(0x9E3779B97F4A7C15)
			var k Kind
			k = e.RegisterKind(func(Time, uint64, uint64) {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				e.ScheduleKind(1+Time(x%uint64(64*Microsecond)), k, 0, 0)
			})
			for i := 0; i < n; i++ {
				e.ScheduleKind(Time(i), k, 0, 0)
			}
			for i := 0; i < 4*n; i++ {
				e.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
