package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/sim"
	"repro/internal/snapbuf"
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
// build restores only while the config block and the warm state encode
// identically, and a simulator change that moves the state a run
// reaches moves these bytes too. The digests were recorded from the
// build that introduced snapshotVersion 3; any intended format or
// simulator change must bump the version and re-record them.
func TestSnapshotBytesPinned(t *testing.T) {
	want := map[string]string{
		"memcached": "a57f0d9a50c654db0d9f81ae811b1d253fc70d74e5e6217a02095c61e843dec8",
		"kafka":     "662baf8936061d3438d26b111b54f81c171c6687b13cdedda8e420d4a212abe4",
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

// TestRestoreRejectsCorruptPayloads is the strict-decode net: every
// truncation of a valid snapshot, trailing garbage, an unknown version
// byte and flipped bytes must all fail Restore — never yield an
// instance silently built from a damaged document.
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
	for _, v := range []byte{snapshotVersion - 1, snapshotVersion + 1} {
		body := append([]byte{}, blob[:len(blob)-4]...)
		body[0] = v
		var e snapbuf.Encoder
		e.Buf = body
		e.Seal()
		if _, err := Restore(e.Buf); err == nil {
			t.Errorf("Restore accepted version %d under a valid checksum", v)
		}
	}
	// A flip anywhere, even in a float no structural check could
	// doubt, fails the CRC-32C trailer.
	for _, off := range []int{1, len(blob) / 2, len(blob) - 5, len(blob) - 1} {
		bad := append([]byte{}, blob...)
		bad[off] ^= 0x01
		if _, err := Restore(bad); err == nil {
			t.Errorf("Restore accepted a payload with byte %d of %d flipped", off, len(blob))
		}
	}
}

// TestRestoreRejectsUnrunnableState reseals snapshots carrying one
// extra pending event, so only the decoder's consistency check can
// refuse them. Each extra timer contradicts the state it acts on: a
// completion on a core with nothing in execution (firing it would run
// the idle entry on an idle core and panic in the C-state machine), a
// second entry or exit timer, a second snoop timer, a package timer
// the instance does not hold, and a core index out of range. A
// harmless extra (a snoop return, which checks its idle episode) must
// still restore, and it and the pristine payload must step on.
func TestRestoreRejectsUnrunnableState(t *testing.T) {
	ins, err := NewInstance(snapCfg(), false)
	if err != nil {
		t.Fatal(err)
	}
	mustInterval(t, ins, 8*sim.Millisecond, 170e3)
	blob, err := ins.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s := ins.s
	idle := -1
	for i, c := range s.cores {
		if !c.busy {
			idle = i
			break
		}
	}
	if idle < 0 {
		t.Fatal("no idle core at the boundary")
	}

	// The engine's state opens the instance state: clock, sequence
	// counter, fired count, event count, then 40-byte event records.
	fp, err := snapshottable(&ins.orig)
	if err != nil {
		t.Fatal(err)
	}
	var pre snapbuf.Encoder
	pre.U8(snapshotVersion)
	encodeConfig(&pre, &ins.orig, fp)
	pre.Bool(ins.park)
	pre.Bool(ins.started)
	pre.I64(int64(ins.index))
	pre.U64(ins.preSnoops)
	countOff := len(pre.Buf) + 3*8
	pending := s.eng.Pending()
	if got := binary.BigEndian.Uint64(blob[countOff:]); got != uint64(pending) {
		t.Fatalf("offset %d holds %d, not the %d pending events", countOff, got, pending)
	}
	// withEvent appends one event after every pending one (the latest
	// time keeps the canonical order, and the held positions still
	// point where they did) and reseals the document.
	withEvent := func(k sim.Kind, core uint64) []byte {
		end := countOff + 8 + pending*40
		var e snapbuf.Encoder
		e.Buf = append(e.Buf, blob[:countOff]...)
		e.I64(int64(pending + 1))
		e.Buf = append(e.Buf, blob[countOff+8:end]...)
		e.I64(int64(sim.MaxTime - 1))
		e.U64(1)
		e.U64(uint64(k))
		e.U64(core)
		e.U64(0)
		e.Buf = append(e.Buf, blob[end:len(blob)-4]...)
		e.Seal()
		return e.Buf
	}
	for _, tc := range []struct {
		name string
		kind sim.Kind
		core int
	}{
		{"completion on an idle core", s.kComplete, idle},
		{"extra entry timer", s.kEntryDone, idle},
		{"extra exit timer", s.kExitDone, idle},
		{"second snoop timer", s.kSnoopNext, idle},
		{"package timer not held", s.kPkgIdle, 0},
		{"core out of range", s.kSnoopRet, len(s.cores)},
	} {
		if _, err := Restore(withEvent(tc.kind, uint64(tc.core))); err == nil {
			t.Errorf("%s: Restore accepted it", tc.name)
		}
	}
	for name, payload := range map[string][]byte{
		"pristine":             blob,
		"harmless extra event": withEvent(s.kSnoopRet, uint64(idle)),
	} {
		got, err := Restore(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mustInterval(t, got, 4*sim.Millisecond, 150e3)
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

// FuzzSnapshotRestoreDeterminism drives restore determinism from
// arbitrary inputs: run a short random interval script, snapshot at a
// fuzzer-chosen boundary and restore. The reference is a fresh
// instance replaying the same script: at the boundary the parent, the
// restored child and the replay must snapshot byte-equal, and every
// remaining interval, and the final snapshots, must agree on all three.
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
		ref, err := NewInstance(cfg, park)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			mustInterval(t, parent, 3*sim.Millisecond, rateAt(i))
			mustInterval(t, ref, 3*sim.Millisecond, rateAt(i))
		}
		blob := mustSnapshot(t, parent)
		child, err := Restore(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustSnapshot(t, child), blob) || !bytes.Equal(mustSnapshot(t, ref), blob) {
			t.Fatalf("at boundary %d the restored child or the replay snapshots differently from the parent", cut)
		}
		for i := cut; i < nIv; i++ {
			rr := mustInterval(t, ref, 3*sim.Millisecond, rateAt(i))
			for name, ins := range map[string]*Instance{"parent": parent, "child": child} {
				if got := mustInterval(t, ins, 3*sim.Millisecond, rateAt(i)); !reflect.DeepEqual(got, rr) {
					t.Fatalf("interval %d: the %s diverged from the replay after a restore at boundary %d\n%s: %+v\nreplay: %+v",
						i, name, cut, name, got, rr)
				}
			}
		}
		final := mustSnapshot(t, ref)
		if !bytes.Equal(mustSnapshot(t, parent), final) || !bytes.Equal(mustSnapshot(t, child), final) {
			t.Fatal("final snapshots differ from the replay's")
		}
	})
}
