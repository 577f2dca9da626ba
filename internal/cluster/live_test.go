package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
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

// replayLive is the restore reference: it steps ref, a fresh Live of
// src's scenario (or one already replayed part of the way), through
// src's recorded decisions up to src's epoch. A forced epoch replays
// its recorded target, an unforced one steps and must land on the
// recorded target. A checkpoint of src must decode to exactly ref.
func replayLive(t testing.TB, ref, src *Live) {
	t.Helper()
	for e := ref.Epoch(); e < src.Epoch(); e++ {
		var err error
		if src.forced[e] {
			_, err = ref.StepTarget(src.targets[e])
		} else {
			_, err = ref.Step()
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref.targets[e] != src.targets[e] {
			t.Fatalf("replay epoch %d chose target %d, the run chose %d", e, ref.targets[e], src.targets[e])
		}
	}
}

func mustSnapshot(t testing.TB, l *Live) []byte {
	t.Helper()
	blob, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// checkCheckpoints drives cfg through script (per epoch, a forced
// target, or -1 for an unforced Step). At every epoch boundary the
// running fleet, a fresh Fork, RestoreLive of its checkpoint and the
// replay reference must snapshot byte-equal. From each boundary the
// fork and the restore run the rest of the script, and every final
// Result and telemetry history must equal the running fleet's.
func checkCheckpoints(t *testing.T, cfg ScenarioConfig, script []int) {
	t.Helper()
	step := func(l *Live) {
		t.Helper()
		var err error
		if target := script[l.Epoch()]; target >= 0 {
			_, err = l.StepTarget(target)
		} else {
			_, err = l.Step()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	orig, ref := mustLive(t, cfg), mustLive(t, cfg)
	if len(script) != orig.Epochs() {
		t.Fatalf("script has %d epochs, the plan %d", len(script), orig.Epochs())
	}
	type branch struct {
		name string
		from int
		l    *Live
	}
	var branches []branch
	for {
		e := orig.Epoch()
		replayLive(t, ref, orig)
		blob := mustSnapshot(t, orig)
		restored, err := RestoreLive(cfg, blob)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		fork := orig.Fork()
		for _, b := range []branch{{"replay", e, ref}, {"fork", e, fork}, {"restore", e, restored}} {
			if !bytes.Equal(mustSnapshot(t, b.l), blob) {
				t.Fatalf("epoch %d: the %s's snapshot differs from the running fleet's", e, b.name)
			}
		}
		branches = append(branches, branch{"fork", e, fork}, branch{"restore", e, restored})
		if orig.Done() {
			break
		}
		step(orig)
	}
	want, history := mustResult(t, orig), orig.History()
	if !reflect.DeepEqual(mustResult(t, ref), want) {
		t.Error("the replay reference's result differs from the running fleet's")
	}
	for _, b := range branches {
		for !b.l.Done() {
			step(b.l)
		}
		if !reflect.DeepEqual(mustResult(t, b.l), want) {
			t.Errorf("the %s taken at epoch %d finished with a different result\n got %+v\nwant %+v", b.name, b.from, mustResult(t, b.l), want)
		}
		if !reflect.DeepEqual(b.l.History(), history) {
			t.Errorf("the %s taken at epoch %d finished with a different telemetry history", b.name, b.from)
		}
	}
}

// checkpointScenario is liveScenario on eight-core nodes at a third of
// the load: the fleet still parks, unparks and splits, at a fraction of
// the events, so the checkpoint tests can afford every epoch boundary.
func checkpointScenario() ScenarioConfig {
	cfg := liveScenario()
	node := cfg.Nodes[0]
	node.Cores = 8
	cfg.Nodes = Homogeneous(len(cfg.Nodes), node)
	cfg.Schedule = mustSchedule(scenario.Diurnal(7e5, 0.6, 160*sim.Millisecond, 8))
	return cfg
}

// TestLiveSnapshotRestore pins the fleet checkpoint against the replay
// reference (checkCheckpoints) at every epoch boundary: open-loop,
// controlled, a crash that leaves a class down, a straggler under the
// queue overload policy, replica error bars, and the Kafka profile's
// stateful MMPP2 arrivals on a shared-seed fleet whose classes split.
// Every script forces two epochs, so forced and unforced decisions both
// cross a checkpoint.
func TestLiveSnapshotRestore(t *testing.T) {
	script := []int{-1, -1, 1, -1, -1, 2, -1, -1}
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
		{"straggler-queue", func(c *ScenarioConfig) {
			c.Controller = ControllerSpec{Name: ControllerReactive}
			c.Overload = OverloadSpec{Policy: OverloadQueue}
			c.Faults = FaultSpec{Nodes: []NodeFault{
				{Node: 2, Kind: FaultStraggler, Start: 20 * sim.Millisecond, End: 60 * sim.Millisecond, Factor: 3},
			}}
		}},
		{"replicas", func(c *ScenarioConfig) { c.Replicas = 2 }},
		{"kafka-shared", func(c *ScenarioConfig) {
			node := c.Nodes[0]
			node.Profile = workload.Kafka()
			c.Nodes = sharedFleet(len(c.Nodes), node)
			c.Controller = ControllerSpec{Name: ControllerReactive}
			c.Faults = FaultSpec{Nodes: []NodeFault{
				{Node: 1, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond},
			}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := checkpointScenario()
			tc.mut(&cfg)
			checkCheckpoints(t, cfg, script)
		})
	}
}

// TestLiveSnapshotBytesPinned pins a fleet checkpoint byte for byte,
// recorded from the build that introduced liveSnapshotVersion 6:
// checkpoints carry no migration, so one written earlier restores only
// while the fleet and per-instance encodings stay identical. A
// restore no longer re-simulates, so this digest is what catches a
// simulator change that would restore old warm state onto a changed
// model: any such change moves it and must bump the version.
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
	const want = "2ee32752fbfa42dfa02576e5131fad09207c10712c884d1d05ffa9e3fd067b0c"
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

// reseal returns data with its body changed by mut and the CRC-32C
// trailer recomputed, so the decoder, not the checksum, must catch the
// change.
func reseal(data []byte, mut func(body []byte)) []byte {
	body := append([]byte(nil), data[:len(data)-4]...)
	mut(body)
	return binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// TestRestoreLiveRejectsTargetedCorruption corrupts a checkpoint of a
// controlled, queue-policy fleet. The named cases hit each block of
// the document (version, identity, decision history, class block, the
// last instance's state) at offsets computed from the codec's layout
// (see Live.Snapshot). The forced-flag case reseals the checksum, so
// the decoder's strict boolean, not the CRC-32C, must reject it. The
// sweeps then flip every byte and cut at every length, which the
// trailer makes sound: each must fail. A version byte from another
// format under a valid checksum, and a checkpoint restored under a
// different scenario config, must be rejected too.
func TestRestoreLiveRejectsTargetedCorruption(t *testing.T) {
	cfg := liveScenario()
	cfg.Controller = ControllerSpec{Name: ControllerReactive}
	cfg.Overload.Policy = OverloadQueue
	l := mustLive(t, cfg)
	const epochs = 3
	for i := 0; i < epochs; i++ {
		if _, err := l.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blob := mustSnapshot(t, l)

	// Layout: 1 version byte, the identity block, the epoch count and
	// one record per epoch (decision, window, account, telemetry with a
	// sample per node), the admission flag and backlog, then the class
	// count and the classes; the last 4 bytes are the CRC-32C.
	const i64 = 8
	str := func(s string) int { return i64 + len(s) }
	identEnd := 1 + 4*i64 + // nodes, plan epochs, total, epoch
		str(cfg.Schedule.Name()) + str(cfg.Dispatch) + str(cfg.Controller.Name) +
		1 + 1 + i64 + // park, compact, replicas
		str(cfg.Overload.Policy) + 2*i64 // max util, max backlog
	histOff := identEnd
	epochRec := epochBytes + i64 + len(cfg.Nodes)*nodeTelBytes
	classOff := histOff + i64 + epochs*epochRec + 1 + i64

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
			return reseal(b, func(body []byte) { body[histOff+2*i64] = 2 })
		}},
		{"class count flipped", flip(classOff + i64 - 1)},
		{"instance snapshot tail flipped", flip(len(blob) - 6)},
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
	t.Run("every byte flipped", func(t *testing.T) {
		bad := append([]byte{}, blob...)
		for off := range bad {
			bad[off] ^= 0xFF
			_, err := RestoreLive(cfg, bad)
			bad[off] ^= 0xFF
			if err == nil {
				t.Fatalf("RestoreLive accepted the checkpoint with byte %d of %d flipped", off, len(bad))
			}
		}
	})
	t.Run("every truncation", func(t *testing.T) {
		for n := 0; n < len(blob); n++ {
			if _, err := RestoreLive(cfg, blob[:n]); err == nil {
				t.Fatalf("RestoreLive accepted truncation to %d of %d bytes", n, len(blob))
			}
		}
	})
	t.Run("other version under a valid checksum", func(t *testing.T) {
		for _, v := range []byte{liveSnapshotVersion - 1, liveSnapshotVersion + 1} {
			if _, err := RestoreLive(cfg, reseal(blob, func(b []byte) { b[0] = v })); err == nil {
				t.Errorf("RestoreLive accepted version %d", v)
			}
		}
	})
	t.Run("other scenario config", func(t *testing.T) {
		for name, mut := range map[string]func(*ScenarioConfig){
			"dispatch":   func(c *ScenarioConfig) { c.Dispatch = DispatchSpread },
			"controller": func(c *ScenarioConfig) { c.Controller = ControllerSpec{Name: ControllerPredictive} },
			"overload":   func(c *ScenarioConfig) { c.Overload.MaxBacklogSec = 2 },
			"schedule":   func(c *ScenarioConfig) { c.Schedule = mustSchedule(scenario.Diurnal(3e6, 0.6, 160*sim.Millisecond, 8)) },
		} {
			other := cfg
			mut(&other)
			if _, err := RestoreLive(other, blob); err == nil {
				t.Errorf("RestoreLive accepted a checkpoint taken under a different %s", name)
			}
		}
	})

	// The layout above must describe the real document: the counts sit
	// where it says, the pristine blob restores, and so does a resealed
	// copy with the forced flag the invalid-flag case overwrites.
	if got := binary.BigEndian.Uint64(blob[histOff:]); got != epochs {
		t.Fatalf("offset %d holds %d, not the epoch count", histOff, got)
	}
	if got := binary.BigEndian.Uint64(blob[classOff:]); got != uint64(len(l.classes)) {
		t.Fatalf("offset %d holds %d, not the class count %d", classOff, got, len(l.classes))
	}
	if _, err := RestoreLive(cfg, blob); err != nil {
		t.Fatalf("pristine checkpoint no longer restores: %v", err)
	}
	if _, err := RestoreLive(cfg, reseal(blob, func(b []byte) { b[histOff+2*i64] ^= 1 })); err != nil {
		t.Fatalf("a checkpoint with the other valid forced flag no longer decodes: %v", err)
	}
}

// fuzzLiveScenario is checkpointScenario on a shared-seed fleet with a
// controller, a crash, a straggler and the queue policy, so its
// checkpoints hold split classes, a down class and a backlog.
func fuzzLiveScenario() ScenarioConfig {
	cfg := checkpointScenario()
	cfg.Nodes = sharedFleet(len(cfg.Nodes), cfg.Nodes[0])
	cfg.Controller = ControllerSpec{Name: ControllerReactive}
	cfg.Overload = OverloadSpec{Policy: OverloadQueue}
	cfg.Faults = FaultSpec{Nodes: []NodeFault{
		{Node: 1, Kind: FaultCrash, Start: 40 * sim.Millisecond, End: 80 * sim.Millisecond},
		{Node: 2, Kind: FaultStraggler, Start: 20 * sim.Millisecond, End: 60 * sim.Millisecond, Factor: 3},
	}}
	return cfg
}

// fuzzRestoreScenario is fuzzLiveScenario shrunk to two-core nodes at
// a third of its load, so its checkpoints are a few kilobytes and the
// fuzzer mutates state rather than bulk.
func fuzzRestoreScenario() ScenarioConfig {
	cfg := fuzzLiveScenario()
	node := cfg.Nodes[0]
	node.Cores = 2
	cfg.Nodes = sharedFleet(len(cfg.Nodes), node)
	cfg.Schedule = mustSchedule(scenario.Diurnal(2e5, 0.6, 160*sim.Millisecond, 8))
	return cfg
}

// fuzzRestoreAllocSlack bounds what RestoreLive of fuzzRestoreScenario
// may allocate beyond 64 bytes per payload byte: the plan and the
// initial grouping the config implies, and per class (at most one per
// node) a freshly built two-core instance whose five histograms may
// each grow to the 64 KiB a decoded histogram is capped at.
const fuzzRestoreAllocSlack = 4 << 20

// FuzzRestoreLive feeds RestoreLive arbitrary bytes and, from each
// input, a copy with one byte changed and the checksum recomputed, so
// mutated valid checkpoints reach the decoder. A restore must never
// panic or allocate more than O(payload), one that succeeds must be
// canonical (its checkpoint is the input, byte for byte), and the
// fleet it returns must step on: decoding refuses state a later step
// could not run from, so the next epoch must not panic either.
func FuzzRestoreLive(f *testing.F) {
	cfg := fuzzRestoreScenario()
	l, err := NewLive(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for l.Epoch() < 4 {
		// The fresh fleet, its first split, and a down class with the
		// backlog a forced one-node epoch left behind it.
		if e := l.Epoch(); e == 0 || e == 1 || e == 3 {
			blob, err := l.Snapshot()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob, uint32(len(blob)/2), uint8(1))
		}
		var err error
		if l.Epoch() == 2 {
			_, err = l.StepTarget(1)
		} else {
			_, err = l.Step()
		}
		if err != nil {
			f.Fatal(err)
		}
	}
	f.Add([]byte{liveSnapshotVersion, 0, 0, 0, 0}, uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, pos uint32, flip uint8) {
		inputs := [][]byte{data}
		if len(data) > 4 {
			inputs = append(inputs, reseal(data, func(b []byte) {
				if len(b) > 0 {
					b[int(pos)%len(b)] ^= flip
				}
			}))
		}
		for _, in := range inputs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			l, err := RestoreLive(cfg, in)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(64*len(in)+fuzzRestoreAllocSlack) {
				t.Fatalf("restoring %d bytes allocated %d", len(in), alloc)
			}
			if err != nil {
				continue
			}
			if out := mustSnapshot(t, l); !bytes.Equal(out, in) {
				t.Fatalf("an accepted checkpoint of %d bytes re-encodes to %d different bytes", len(in), len(out))
			}
			if !l.Done() {
				// A mutated rate or fault may fail the step; only a
				// panic fails the test.
				_, _ = l.Step()
			}
		}
	})
}
