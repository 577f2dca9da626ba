package runner

import (
	"reflect"
	"testing"

	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// TestCursorCloneAcrossCrash clones a cursor at every boundary of a
// timeline that crashes and restarts, and requires the clone and the
// original to step the rest of it identically: a clone taken while the
// node is down carries no instance, and its restart must rebuild the
// same cold node (same restart count, same remixed seed).
func TestCursorCloneAcrossCrash(t *testing.T) {
	ms := sim.Millisecond
	timeline := []Interval{
		{Window: 4 * ms, Rate: 150e3},
		{Window: 3 * ms, Rate: 90e3, Fault: Fault{Inflate: 2}},
		{Window: 3 * ms, Rate: 0, Fault: Fault{Down: true}},
		{Window: 2 * ms, Rate: 0, Fault: Fault{Down: true}},
		{Window: 4 * ms, Rate: 120e3},
		{Window: 3 * ms, Rate: 0},
		{Window: 4 * ms, Rate: 200e3, Fault: Fault{Throttle: true, TurboCap: 0.3}},
	}
	step := func(tc *TimelineCursor, ivs []Interval) []any {
		var out []any
		for _, iv := range ivs {
			res, err := tc.Step(iv)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res, tc.down, tc.restarts, tc.Parked(), tc.QueueDepth())
		}
		return out
	}
	for cut := 0; cut <= len(timeline); cut++ {
		orig, err := NewCursor(quickCfg(), true)
		if err != nil {
			t.Fatal(err)
		}
		step(orig, timeline[:cut])
		clone := orig.Clone()
		if (clone.Instance() == nil) != (orig.Instance() == nil) || (orig.Instance() != nil && clone.Instance() == orig.Instance()) {
			t.Fatalf("cut %d: clone instance %p, original %p", cut, clone.Instance(), orig.Instance())
		}
		cres := step(clone, timeline[cut:])
		ores := step(orig, timeline[cut:])
		if !reflect.DeepEqual(cres, ores) {
			t.Errorf("cut %d: clone diverged\nclone %+v\n orig %+v", cut, cres, ores)
		}
	}
}

// TestDecodeCursorDerivesPosition round-trips a cursor through
// AppendState and DecodeCursor at three positions: fresh, down at the
// last interval, and up again after a restart. The decoded cursor's
// interval numbering, crash flag and restart count must follow from
// the results alone, and it must step the rest of the timeline exactly
// as the original does.
func TestDecodeCursorDerivesPosition(t *testing.T) {
	ms := sim.Millisecond
	timeline := []Interval{
		{Window: 4 * ms, Rate: 150e3},
		{Window: 3 * ms, Rate: 0, Fault: Fault{Down: true}},
		{Window: 4 * ms, Rate: 120e3},
		{Window: 3 * ms, Rate: 90e3},
	}
	for _, tc := range []struct {
		name     string
		cut      int
		down     bool
		restarts int
	}{
		{"fresh", 0, false, 0},
		{"down at the last interval", 2, true, 0},
		{"after a restart", 3, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig, err := NewCursor(quickCfg(), true)
			if err != nil {
				t.Fatal(err)
			}
			var results []server.IntervalResult
			for _, iv := range timeline[:tc.cut] {
				res, err := orig.Step(iv)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, res)
			}
			var e snapbuf.Encoder
			if err := orig.AppendState(&e); err != nil {
				t.Fatal(err)
			}
			d := snapbuf.NewDecoder(e.Buf)
			got, err := DecodeCursor(d, quickCfg(), true, results)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if got.index != tc.cut || got.down != tc.down || got.restarts != tc.restarts {
				t.Fatalf("decoded cursor at interval %d, down %v, %d restarts; want %d, %v, %d",
					got.index, got.down, got.restarts, tc.cut, tc.down, tc.restarts)
			}
			if got.down != orig.down || got.restarts != orig.restarts || got.index != orig.index {
				t.Fatalf("decoded position differs from the original's (interval %d, down %v, %d restarts)",
					orig.index, orig.down, orig.restarts)
			}
			for _, iv := range timeline[tc.cut:] {
				a, err := orig.Step(iv)
				if err != nil {
					t.Fatal(err)
				}
				b, err := got.Step(iv)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("decoded cursor diverged at interval %d\ndecoded %+v\n    orig %+v", a.Index, b, a)
				}
			}
		})
	}
}
