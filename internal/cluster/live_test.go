package cluster

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
)

// liveScenario is the shared live-engine fixture: a 4-node fleet under
// a diurnal schedule with consolidation and parking — enough epochs and
// rate movement to exercise class splits, parks and unparks.
func liveScenario() ScenarioConfig {
	node := quickNode(0)
	node.Warmup = 5 * sim.Millisecond
	total := 160 * sim.Millisecond
	return ScenarioConfig{
		Nodes:       Homogeneous(4, node),
		Schedule:    mustSchedule(scenario.Diurnal(2e6, 0.6, total, 8)),
		Epoch:       total / 8,
		Dispatch:    DispatchConsolidate,
		ParkDrained: true,
	}
}

// stepAll steps the live fleet to completion.
func stepAll(t *testing.T, l *Live) {
	t.Helper()
	for !l.Done() {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func mustLive(t *testing.T, cfg ScenarioConfig) *Live {
	t.Helper()
	l, err := NewLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustResult(t *testing.T, l *Live) ScenarioResult {
	t.Helper()
	res, err := l.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLiveMatchesRunScenario pins that RunScenario is a Live stepped to
// completion: stepping one by hand and packaging it with Result must
// return the exact ScenarioResult RunScenario computes for the same
// config — open-loop, controlled, faulted, compact, and with replica
// CIs — and the Live must refuse a step past its last epoch.
func TestLiveMatchesRunScenario(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*ScenarioConfig)
	}{
		{"open-loop", func(*ScenarioConfig) {}},
		{"compact-replicas", func(c *ScenarioConfig) { c.CompactNodes = true; c.Replicas = 2 }},
		{"reactive", func(c *ScenarioConfig) { c.Controller = ControllerSpec{Name: ControllerReactive} }},
		{"predictive-faulted", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerPredictive}
			c.Faults = FaultSpec{Nodes: []NodeFault{
				{Node: 1, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond},
				{Node: 2, Kind: FaultStraggler, Start: 20 * sim.Millisecond, End: 60 * sim.Millisecond, Factor: 3},
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveScenario()
			tc.mut(&cfg)
			want, err := RunScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := mustLive(t, cfg)
			if l.Epochs() != 8 {
				t.Fatalf("Epochs() = %d, want 8", l.Epochs())
			}
			stepAll(t, l)
			got := mustResult(t, l)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("live result diverged from RunScenario\n got %+v\nwant %+v", got, want)
			}
			if _, err := l.Step(); err == nil {
				t.Error("Step past the last epoch succeeded")
			}
		})
	}
}

// TestLiveForkDeterminism pins the what-if engine's core guarantee: a
// fork taken mid-scenario replays the remaining epochs bit-identically
// to its parent, and stepping the fork leaves the parent's own future
// untouched.
func TestLiveForkDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*ScenarioConfig)
	}{
		{"open-loop", func(*ScenarioConfig) {}},
		{"reactive", func(c *ScenarioConfig) { c.Controller = ControllerSpec{Name: ControllerReactive} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveScenario()
			tc.mut(&cfg)
			parent := mustLive(t, cfg)
			for i := 0; i < 4; i++ {
				if _, err := parent.Step(); err != nil {
					t.Fatal(err)
				}
			}
			fork := parent.Fork()
			// The fork steps first: if it shared any mutable state with
			// the parent, the parent's remaining epochs would feel it.
			stepAll(t, fork)
			stepAll(t, parent)
			pres, fres := mustResult(t, parent), mustResult(t, fork)
			if !reflect.DeepEqual(pres, fres) {
				t.Errorf("fork timeline diverged from parent\nparent %+v\n  fork %+v", pres, fres)
			}
			want, err := RunScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pres, want) {
				t.Error("parent stepped after a fork diverged from RunScenario")
			}
		})
	}
}

// TestLiveStepTargetWhatIf drives the operator-override path: forcing a
// small active set on a fork parks the rest of the fleet for those
// epochs, without the controller fighting back and without disturbing
// the parent.
func TestLiveStepTargetWhatIf(t *testing.T) {
	cfg := liveScenario()
	cfg.Controller = ControllerSpec{Name: ControllerReactive}
	parent := mustLive(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := parent.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fork := parent.Fork()
	for i := 0; i < 2; i++ {
		tel, err := fork.StepTarget(1)
		if err != nil {
			t.Fatal(err)
		}
		if tel.ActiveNodes != 1 {
			t.Errorf("forced epoch %d: ActiveNodes = %d, want 1", i, tel.ActiveNodes)
		}
		if tel.ParkedNodes != len(cfg.Nodes)-1 {
			t.Errorf("forced epoch %d: ParkedNodes = %d, want %d", i, tel.ParkedNodes, len(cfg.Nodes)-1)
		}
	}
	stepAll(t, fork)
	res := mustResult(t, fork)
	if res.Epochs[3].TargetNodes != 1 || res.Epochs[4].TargetNodes != 1 {
		t.Errorf("forced epochs report targets %d,%d, want 1,1",
			res.Epochs[3].TargetNodes, res.Epochs[4].TargetNodes)
	}

	// The parent is untouched by the fork's alternate future.
	stepAll(t, parent)
	want, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mustResult(t, parent), want) {
		t.Error("parent diverged after a fork ran a what-if")
	}
}

// TestLiveSnapshotRestore pins the fleet checkpoint: a fleet restored
// from a mid-scenario snapshot replays the remaining epochs
// bit-identically to the uninterrupted original, on open-loop,
// controlled and faulted runs.
func TestLiveSnapshotRestore(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*ScenarioConfig)
	}{
		{"open-loop", func(*ScenarioConfig) {}},
		{"reactive", func(c *ScenarioConfig) { c.Controller = ControllerSpec{Name: ControllerReactive} }},
		{"crash-fault", func(c *ScenarioConfig) {
			c.Faults = FaultSpec{Nodes: []NodeFault{
				{Node: 0, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 100 * sim.Millisecond},
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveScenario()
			tc.mut(&cfg)
			orig := mustLive(t, cfg)
			for i := 0; i < 4; i++ {
				if _, err := orig.Step(); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreLive(cfg, blob)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Epoch() != orig.Epoch() || restored.Clock() != orig.Clock() {
				t.Fatalf("restored at epoch %d clock %v, original at epoch %d clock %v",
					restored.Epoch(), restored.Clock(), orig.Epoch(), orig.Clock())
			}
			stepAll(t, orig)
			stepAll(t, restored)
			ores, rres := mustResult(t, orig), mustResult(t, restored)
			if !reflect.DeepEqual(ores, rres) {
				t.Errorf("restored fleet diverged from original\noriginal %+v\nrestored %+v", ores, rres)
			}
		})
	}
}

// TestLiveSnapshotBytesPinned pins a fleet checkpoint byte for byte,
// recorded from the build that introduced the format: checkpoints carry
// no migration, so one written earlier restores only while the fleet
// and per-instance encodings stay identical.
func TestLiveSnapshotBytesPinned(t *testing.T) {
	l := mustLive(t, liveScenario())
	for i := 0; i < 3; i++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const want = "665d82ca97243f8824a8c532418b8b92d5820bea2779ccf32f3bbbc6252819a2"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Errorf("fleet snapshot sha256 = %s, want %s", got, want)
	}
}

// TestRestoreLiveRejectsCorruptPayloads is the strict-decode net at the
// fleet level: truncations, version flips, trailing bytes and a
// mismatched scenario config must all fail RestoreLive.
func TestRestoreLiveRejectsCorruptPayloads(t *testing.T) {
	cfg := liveScenario()
	l := mustLive(t, cfg)
	for i := 0; i < 2; i++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := RestoreLive(cfg, nil); err == nil {
		t.Error("RestoreLive(nil) succeeded")
	}
	// Truncation sweep: sample every 7th cut so the test stays fast but
	// still crosses every block boundary of the document.
	for n := 0; n < len(blob); n += 7 {
		if _, err := RestoreLive(cfg, blob[:n]); err == nil {
			t.Fatalf("RestoreLive accepted truncation to %d of %d bytes", n, len(blob))
		}
	}
	if _, err := RestoreLive(cfg, append(append([]byte{}, blob...), 0x7)); err == nil {
		t.Error("RestoreLive accepted trailing garbage")
	}
	bad := append([]byte{}, blob...)
	bad[0] = liveSnapshotVersion + 1
	if _, err := RestoreLive(cfg, bad); err == nil {
		t.Error("RestoreLive accepted an unknown version byte")
	}
	other := cfg
	other.Dispatch = DispatchSpread
	if _, err := RestoreLive(other, blob); err == nil {
		t.Error("RestoreLive accepted a checkpoint taken under a different scenario config")
	}
}

// TestRestoreLiveRejectsTargetedCorruption walks the checkpoint
// document block by block — version byte, identity block (including
// the v2 overload fields), decision history, nested instance snapshots
// — and proves a flipped byte or a truncation inside each one is
// rejected. Every offset is computed from the codec's fixed-width
// layout, and every flip has a guaranteed failure mode (an identity
// mismatch, an invalid boolean, a replay-target mismatch, or an
// instance byte-inequality) — a full blind sweep could land on bytes
// whose corruption is replay-equivalent and pass silently.
func TestRestoreLiveRejectsTargetedCorruption(t *testing.T) {
	cfg := liveScenario()
	cfg.Controller = ControllerSpec{Name: ControllerReactive}
	cfg.Overload.Policy = OverloadQueue
	l := mustLive(t, cfg)
	for i := 0; i < 3; i++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Fixed-width layout arithmetic (see Live.Snapshot): 1 version byte,
	// then the identity block, the 3-epoch decision history, and the
	// class verification block holding the nested instance snapshots.
	const i64 = 8
	str := func(s string) int { return i64 + len(s) }
	identEnd := 1 + 4*i64 + // nodes, plan epochs, total, epoch
		str(cfg.Schedule.Name()) + str(cfg.Dispatch) + str(cfg.Controller.Name) +
		1 + 1 + i64 + // park, compact, replicas
		str(cfg.Overload.Policy) + 2*i64 // max util, max backlog
	histOff := identEnd
	classOff := histOff + i64 + 3*(i64+1) // count, then target+forced per epoch

	flip := func(off int) func([]byte) []byte {
		return func(b []byte) []byte { b[off] ^= 0xFF; return b }
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"version byte flipped", flip(0)},
		{"identity node count flipped", flip(1 + i64 - 1)},
		{"identity schedule name flipped", flip(1 + 4*i64 + i64)},
		{"identity overload max-util flipped", flip(identEnd - 2*i64)},
		{"identity overload backlog cap flipped", flip(identEnd - 1)},
		{"decision history count flipped", flip(histOff + i64 - 1)},
		{"decision history target flipped", flip(histOff + i64 + i64 - 1)},
		{"decision history forced flag invalid", func(b []byte) []byte {
			b[histOff+i64+i64] = 2
			return b
		}},
		{"class count flipped", flip(classOff + i64 - 1)},
		{"instance snapshot tail flipped", flip(len(blob) - 2)},
		{"truncated inside the identity block", func(b []byte) []byte { return b[:identEnd-4] }},
		{"truncated inside the decision history", func(b []byte) []byte { return b[:histOff+i64+4] }},
		{"truncated inside an instance snapshot", func(b []byte) []byte { return b[:len(b)-10] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := tc.mut(append([]byte{}, blob...))
			if _, err := RestoreLive(cfg, bad); err == nil {
				t.Error("RestoreLive accepted the corrupted checkpoint")
			}
		})
	}

	// The arithmetic above must describe the real document: the
	// untouched blob still restores.
	if _, err := RestoreLive(cfg, blob); err != nil {
		t.Fatalf("pristine checkpoint no longer restores: %v", err)
	}
}
