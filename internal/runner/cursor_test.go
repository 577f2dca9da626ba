package runner

import (
	"reflect"
	"testing"

	"repro/internal/sim"
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
			out = append(out, res, tc.Down(), tc.Restarts(), tc.Parked(), tc.QueueDepth())
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
