package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/workload"
)

// snapCfg builds the snapshot-test node: AgileWatts platform so deep
// C-state machinery, turbo budget and snoop traffic are all live state
// the snapshot must carry.
func snapCfg() Config {
	cfg := instCfg()
	cfg.Platform = governor.AW
	cfg.SnoopRatePerSec = 20e3
	return cfg
}

// runTail drives ins through the shared post-split script — a rate
// step, a fault window, a zero-rate window, recovery — and returns
// every interval result. Parent and restored child must produce
// bit-identical tails.
func runTail(t *testing.T, ins *Instance) []IntervalResult {
	t.Helper()
	var out []IntervalResult
	out = append(out, mustInterval(t, ins, 9*sim.Millisecond, 220e3))
	ins.SetServiceInflation(3)
	ins.SetTurboCap(true, 0.25)
	out = append(out, mustInterval(t, ins, 7*sim.Millisecond, 140e3))
	ins.SetServiceInflation(0)
	ins.SetTurboCap(false, 0)
	out = append(out, mustInterval(t, ins, 6*sim.Millisecond, 0))
	out = append(out, mustInterval(t, ins, 8*sim.Millisecond, 180e3))
	return out
}

// TestSnapshotRestoreRoundTrip is the tentpole's anchor at the instance
// level: a node snapshotted mid-scenario — including under an active
// straggler+throttle fault and after a parked window — must restore to
// an instance whose entire remaining timeline is bit-identical to the
// uninterrupted parent's.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		park bool
	}{
		{name: "open-loop", mut: func(*Config) {}},
		{name: "bursty", mut: func(c *Config) { c.LoadGen = LoadBursty }},
		{name: "closed-loop", mut: func(c *Config) {
			c.LoadGen = LoadClosedLoop
			c.ClosedLoopConnections = 32
		}},
		{name: "parking", mut: func(*Config) {}, park: true},
		{name: "mysql-fixed-freq", mut: func(c *Config) {
			c.Profile = workload.MySQL()
			c.Platform = governor.KVBaseline
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := snapCfg()
			tc.mut(&cfg)
			parent, err := NewInstance(cfg, tc.park)
			if err != nil {
				t.Fatal(err)
			}
			// Pre-snapshot history: a plain window, a faulted window
			// (inflation + throttle still installed at capture time), and
			// for the parking case a parked one.
			mustInterval(t, parent, 11*sim.Millisecond, 200e3)
			parent.SetServiceInflation(2.5)
			parent.SetTurboCap(true, 0.5)
			mustInterval(t, parent, 5*sim.Millisecond, 160e3)
			if tc.park {
				parent.SetServiceInflation(0)
				parent.SetTurboCap(false, 0)
				mustInterval(t, parent, 4*sim.Millisecond, 0)
			}

			blob, err := parent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			child, err := Restore(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := child.Clock(), parent.Clock(); got != want {
				t.Fatalf("restored clock %v, parent clock %v", got, want)
			}
			if got, want := child.Parked(), parent.Parked(); got != want {
				t.Fatalf("restored parked=%v, parent parked=%v", got, want)
			}

			// The fault installed before capture must survive restore: run
			// one interval on both before the shared tail clears it.
			pf := mustInterval(t, parent, 3*sim.Millisecond, 150e3)
			cf := mustInterval(t, child, 3*sim.Millisecond, 150e3)
			if !reflect.DeepEqual(pf, cf) {
				t.Fatalf("faulted interval diverged after restore\nparent: %+v\n child: %+v", pf, cf)
			}
			parent.SetServiceInflation(0)
			parent.SetTurboCap(false, 0)
			child.SetServiceInflation(0)
			child.SetTurboCap(false, 0)

			pTail := runTail(t, parent)
			cTail := runTail(t, child)
			if !reflect.DeepEqual(pTail, cTail) {
				t.Fatalf("post-restore timeline diverged\nparent: %+v\n child: %+v", pTail, cTail)
			}
		})
	}
}

// TestSnapshotIsStable pins that Snapshot is a pure read: taking one
// does not perturb the instance (the next interval matches a never-
// snapshotted twin), and two consecutive snapshots are byte-identical.
func TestSnapshotIsStable(t *testing.T) {
	cfg := snapCfg()
	a, err := NewInstance(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewInstance(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	mustInterval(t, a, 10*sim.Millisecond, 190e3)
	mustInterval(t, b, 10*sim.Millisecond, 190e3)
	s1, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("two consecutive snapshots differ")
	}
	ra := mustInterval(t, a, 10*sim.Millisecond, 190e3)
	rb := mustInterval(t, b, 10*sim.Millisecond, 190e3)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("taking a snapshot perturbed the instance")
	}
}

// TestSnapshotBytesPinned pins the snapshot encoding byte for byte: the
// format carries no migration, so a checkpoint written by an earlier
// build restores only while the config block, history and verification
// block encode identically. The digests were recorded from the build
// that introduced snapshotVersion 1; any intended format change must
// bump the version and re-record them.
func TestSnapshotBytesPinned(t *testing.T) {
	want := map[string]string{
		"memcached": "f8aa1a813294133353ba02bfab1df793effcf52c0199ef780d9cf757b1df86ee",
		"kafka":     "ab978951467c23141972d1e71803da80d9488e4160429443542205850f99e61b",
	}
	for prof, digest := range want {
		cfg := snapCfg()
		var err error
		if cfg.Profile, err = workload.ByName(prof); err != nil {
			t.Fatal(err)
		}
		ins, err := NewInstance(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		mustInterval(t, ins, 11*sim.Millisecond, 200e3)
		ins.SetServiceInflation(2.5)
		ins.SetTurboCap(true, 0.5)
		mustInterval(t, ins, 5*sim.Millisecond, 160e3)
		ins.SetServiceInflation(0)
		ins.SetTurboCap(false, 0)
		mustInterval(t, ins, 4*sim.Millisecond, 0)
		blob, err := ins.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != digest {
			t.Errorf("%s: snapshot sha256 = %s, want %s", prof, got, digest)
		}
	}
}

// TestRestoreRejectsCorruptPayloads is the strict-decode satellite:
// every truncation of a valid snapshot, trailing garbage, an unknown
// version byte, and a flipped boolean must all fail Restore — never
// yield an instance silently built from a damaged document.
func TestRestoreRejectsCorruptPayloads(t *testing.T) {
	ins, err := NewInstance(snapCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	mustInterval(t, ins, 8*sim.Millisecond, 170e3)
	blob, err := ins.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Restore(nil); err == nil {
		t.Error("Restore(nil) succeeded")
	}
	for n := 0; n < len(blob); n++ {
		if _, err := Restore(blob[:n]); err == nil {
			t.Fatalf("Restore accepted truncation to %d of %d bytes", n, len(blob))
		}
	}
	if _, err := Restore(append(append([]byte{}, blob...), 0xEE)); err == nil {
		t.Error("Restore accepted trailing garbage")
	}
	bad := append([]byte{}, blob...)
	bad[0] = snapshotVersion + 1
	if _, err := Restore(bad); err == nil {
		t.Error("Restore accepted an unknown version byte")
	}
	// A corruption that decodes cleanly must still be caught by replay
	// verification: the payload ends with the RNG stream states, so
	// flipping the final byte yields a structurally valid document whose
	// recorded state can no longer match the replay.
	tail := append([]byte{}, blob...)
	tail[len(tail)-1] ^= 0x01
	if _, err := Restore(tail); err == nil {
		t.Error("Restore accepted a payload with a corrupted verification block")
	}
}

// TestSnapshotRejectsUnserializable pins the capture-time guards: state
// that cannot travel through bytes (custom catalog, unregistered
// workload profile) is rejected by Snapshot itself.
func TestSnapshotRejectsUnserializable(t *testing.T) {
	mk := func(mut func(*Config)) *Instance {
		cfg := snapCfg()
		mut(&cfg)
		ins, err := NewInstance(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	cases := []struct {
		name string
		ins  *Instance
	}{
		{"custom-catalog", mk(func(c *Config) { c.Catalog = cstate.Skylake() })},
		{"unregistered-profile", mk(func(c *Config) {
			p := workload.Memcached()
			p.Name = "bespoke"
			c.Profile = p
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.ins.Snapshot(); err == nil {
				t.Fatal("Snapshot succeeded on an unserializable instance")
			}
		})
	}
}

// TestRunIntervalValidation is the regression net for the input checks
// that become reachable from the awserved HTTP surface: non-positive
// windows, negative/NaN/Inf rates and clock-overflowing windows must
// error descriptively and leave the instance resumable.
func TestRunIntervalValidation(t *testing.T) {
	ins, err := NewInstance(instCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		window sim.Time
		rate   float64
	}{
		{"zero-window", 0, 100e3},
		{"negative-window", -sim.Millisecond, 100e3},
		{"negative-rate", sim.Millisecond, -1},
		{"nan-rate", sim.Millisecond, math.NaN()},
		{"inf-rate", sim.Millisecond, math.Inf(1)},
		{"overflow-window", sim.MaxTime, 100e3},
	}
	for _, tc := range bad {
		if _, err := ins.RunInterval(tc.window, tc.rate); err == nil {
			t.Errorf("%s: RunInterval(%d, %g) succeeded, want error", tc.name, tc.window, tc.rate)
		}
	}
	// Every rejection must leave the instance fully usable.
	res := mustInterval(t, ins, 5*sim.Millisecond, 120e3)
	if res.Index != 0 || res.Start != instCfg().Warmup {
		t.Errorf("instance damaged by rejected inputs: first interval %+v", res)
	}
}

// FuzzSnapshotRestoreDeterminism drives the fork-determinism property
// from arbitrary inputs: run a short random interval script, snapshot
// at a fuzzer-chosen boundary, restore, and require the remainder of
// the script to replay bit-identically on parent and child.
func FuzzSnapshotRestoreDeterminism(f *testing.F) {
	f.Add(uint64(21), uint16(180), uint8(2), uint8(5), false)
	f.Add(uint64(7), uint16(40), uint8(0), uint8(3), true)
	f.Add(uint64(99), uint16(250), uint8(4), uint8(6), false)
	f.Fuzz(func(t *testing.T, seed uint64, rateK uint16, split, total uint8, park bool) {
		nIv := int(total)%6 + 2
		cut := int(split) % nIv
		if cut == 0 {
			cut = 1 // snapshot only after the instance has started
		}
		cfg := snapCfg()
		cfg.Seed = seed
		parent, err := NewInstance(cfg, park)
		if err != nil {
			t.Fatal(err)
		}
		// The interval script is a deterministic function of the fuzz
		// inputs: rates cycle through a small palette derived from rateK
		// (including zero windows when parking).
		rateAt := func(i int) float64 {
			r := float64((int(rateK)+i*37)%300) * 1e3
			if park && i%3 == 2 {
				return 0
			}
			if r == 0 {
				r = 50e3
			}
			return r
		}
		for i := 0; i < cut; i++ {
			mustInterval(t, parent, 3*sim.Millisecond, rateAt(i))
		}
		blob, err := parent.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		child, err := Restore(blob)
		if err != nil {
			t.Fatal(err)
		}
		for i := cut; i < nIv; i++ {
			pr := mustInterval(t, parent, 3*sim.Millisecond, rateAt(i))
			cr := mustInterval(t, child, 3*sim.Millisecond, rateAt(i))
			if !reflect.DeepEqual(pr, cr) {
				t.Fatalf("interval %d diverged after restore at boundary %d\nparent: %+v\n child: %+v",
					i, cut, pr, cr)
			}
		}
	})
}
