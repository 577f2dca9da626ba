package server

import (
	"fmt"

	"repro/internal/cstate"
	"repro/internal/sim"
	"repro/internal/snapbuf"
	"repro/internal/workload"
)

// Snapshot format. The payload is a single versioned binary document:
//
//	byte 0       format version (snapshotVersion)
//	config block the construction Config, field by field (profile by
//	             registry name + fingerprint, platform by value)
//	park flag    the parkOnZeroRate construction argument
//	history      every RunInterval call: window, rate, and the fault
//	             state (inflation, throttle cap) live during it
//	verification engine clock, fired-event count, snoops served, and
//	             the three named RNG stream states at capture time
//
// A snapshot crosses processes and builds, so it does not serialize
// live state (the event queue, C-state machines, rings, histograms):
// a dump of those would restore onto a changed simulator without
// complaint. Instead the snapshot captures the two things the state is
// a pure function of — the construction config and the realized
// interval history — and Restore replays them through the normal
// NewInstance/RunInterval path. Replay is bit-exact by the same
// determinism guarantee the cluster layer's class collapse is built on,
// and the verification block turns that guarantee into a checked
// invariant: a restored instance whose clock, event count or RNG
// positions differ from the captured ones (a simulator change since
// capture, or a corrupted payload that still decoded) fails loudly
// instead of silently diverging. Within one process, Instance.Clone
// copies live state directly, in O(state) instead of O(history).
//
// Versioning policy: the version byte is bumped on ANY change to the
// encoding or to simulation behavior that breaks replay equivalence;
// decode rejects unknown versions, truncated payloads and trailing
// bytes outright. There is no cross-version migration — a snapshot is a
// checkpoint of one simulator build, not an archival format.
const snapshotVersion = 1

// Snapshot serializes the instance so Restore can rebuild it in another
// process (or after this one exits) with bit-identical future behavior.
//
// Not every instance is snapshottable: the config must be expressible
// by value. A custom Catalog, or a Profile that is not a registered
// built-in (workload.ByName), cannot travel through bytes and is
// rejected here, at capture time, rather than producing a payload
// that cannot restore.
func (ins *Instance) Snapshot() ([]byte, error) {
	cfg := ins.orig
	if cfg.Catalog != nil {
		return nil, fmt.Errorf("server: snapshot: custom C-state catalogs are not serializable (use the default catalog)")
	}
	reg, err := workload.ByName(cfg.Profile.Name)
	if err != nil {
		return nil, fmt.Errorf("server: snapshot: profile %q is not a registered built-in: %w", cfg.Profile.Name, err)
	}
	fp, ok := cfg.Profile.AppendFingerprint(nil)
	if !ok {
		return nil, fmt.Errorf("server: snapshot: profile %q is not fingerprintable (live state cannot be serialized)", cfg.Profile.Name)
	}
	regFP, _ := reg.Fingerprint()
	if string(fp) != regFP {
		return nil, fmt.Errorf("server: snapshot: profile %q differs from the registered built-in of that name", cfg.Profile.Name)
	}

	var e snapbuf.Encoder
	e.U8(snapshotVersion)
	encodeConfig(&e, &cfg, fp)
	e.Bool(ins.park)

	// Interval history.
	e.I64(int64(len(ins.hist)))
	for _, h := range ins.hist {
		e.I64(int64(h.window))
		e.F64(h.rate)
		e.F64(h.inflate)
		e.Bool(h.throttle)
		e.F64(h.capFrac)
	}

	// Verification block.
	s := ins.s
	e.I64(int64(s.eng.Now()))
	e.U64(s.eng.Fired())
	e.U64(s.snoopsServed)
	for _, rng := range []interface{ State() [4]uint64 }{s.arrRand, s.svcRand, s.netRand} {
		for _, w := range rng.State() {
			e.U64(w)
		}
	}
	return e.Buf, nil
}

// EncodeKey appends the config block of cfg with every unset knob
// defaulted, so zero-value and explicitly-default configs encode alike,
// and reports whether cfg is captured by value: a custom Catalog
// reports false and appends nothing. fingerprint is the text
// cfg.Profile.AppendFingerprint appends; the caller checks that the
// profile has one, and a caller keying many nodes reuses one text
// across nodes that share a profile. It is the shared prefix of the
// runner's memo and class keys, so those keys and snapshots list the
// behavioural fields in one place.
func EncodeKey(e *snapbuf.Encoder, cfg *Config, fingerprint []byte) bool {
	if cfg.Catalog != nil {
		return false
	}
	d := *cfg
	d.applyValueDefaults()
	encodeConfig(e, &d, fingerprint)
	return true
}

// encodeConfig appends the config block: every behavioural Config field
// by value except RatePerSec and Schedule, which an Instance ignores,
// with the profile as its registry name plus fingerprint, the text
// cfg.Profile.AppendFingerprint appends.
func encodeConfig(e *snapbuf.Encoder, cfg *Config, fingerprint []byte) {
	e.I64(int64(cfg.Cores))
	e.Str(cfg.Platform.Name)
	e.I64(int64(len(cfg.Platform.Menu)))
	for _, id := range cfg.Platform.Menu {
		e.U8(uint8(id))
	}
	e.Bool(cfg.Platform.Turbo)
	e.Bool(cfg.Platform.AgileWatts)
	e.Str(cfg.GovernorPolicy)
	e.Str(cfg.Profile.Name)
	e.Bytes(fingerprint)
	e.I64(int64(cfg.Duration))
	e.I64(int64(cfg.Warmup))
	e.U64(cfg.Seed)
	e.Str(cfg.Dispatch)
	e.I64(int64(cfg.PackQueueCap))
	e.Str(cfg.LoadGen)
	e.I64(int64(cfg.BurstOnTime))
	e.I64(int64(cfg.BurstOffTime))
	e.F64(cfg.UncoreW)
	e.F64(cfg.Freq.BaseHz)
	e.F64(cfg.Freq.MinHz)
	e.F64(cfg.Freq.TurboHz)
	e.F64(cfg.TurboSustainedW)
	e.F64(cfg.TurboCapacityJ)
	e.F64(cfg.FixedFreqHz)
	e.F64(cfg.AWFreqLossFraction)
	e.F64(cfg.SnoopRatePerSec)
	e.I64(int64(cfg.SnoopServiceTime))
	e.I64(int64(cfg.OSNoisePeriod))
	e.I64(int64(cfg.OSNoiseDemand))
	e.Bool(cfg.PkgIdleEnabled)
	e.I64(int64(cfg.PkgEntryDelay))
	e.F64(cfg.PkgUncoreLowW)
	e.I64(int64(cfg.ClosedLoopConnections))
	e.I64(int64(cfg.ThinkTime))
}

// Restore rebuilds an instance from a Snapshot payload: strict decode
// (unknown version, truncation and trailing bytes are errors), then a
// deterministic replay of the captured interval history through the
// normal NewInstance/RunInterval path, then verification that the
// replayed state — engine clock, fired-event count, snoop count, RNG
// stream positions — matches the captured values exactly.
func Restore(data []byte) (*Instance, error) {
	d := snapbuf.NewDecoder(data)
	if v := d.U8(); d.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("server: restore: unknown snapshot version %d (want %d)", v, snapshotVersion)
	}

	var cfg Config
	cfg.Cores = int(d.I64())
	cfg.Platform.Name = d.Str()
	if n := d.I64(); d.Err() == nil {
		if n < 0 || n > int64(cstate.NumStates) {
			return nil, fmt.Errorf("server: restore: implausible platform menu length %d", n)
		}
		for i := int64(0); i < n; i++ {
			cfg.Platform.Menu = append(cfg.Platform.Menu, cstate.ID(d.U8()))
		}
	}
	cfg.Platform.Turbo = d.Bool()
	cfg.Platform.AgileWatts = d.Bool()
	cfg.GovernorPolicy = d.Str()
	profileName := d.Str()
	profileFP := d.Str()
	cfg.Duration = sim.Time(d.I64())
	cfg.Warmup = sim.Time(d.I64())
	cfg.Seed = d.U64()
	cfg.Dispatch = d.Str()
	cfg.PackQueueCap = int(d.I64())
	cfg.LoadGen = d.Str()
	cfg.BurstOnTime = sim.Time(d.I64())
	cfg.BurstOffTime = sim.Time(d.I64())
	cfg.UncoreW = d.F64()
	cfg.Freq.BaseHz = d.F64()
	cfg.Freq.MinHz = d.F64()
	cfg.Freq.TurboHz = d.F64()
	cfg.TurboSustainedW = d.F64()
	cfg.TurboCapacityJ = d.F64()
	cfg.FixedFreqHz = d.F64()
	cfg.AWFreqLossFraction = d.F64()
	cfg.SnoopRatePerSec = d.F64()
	cfg.SnoopServiceTime = sim.Time(d.I64())
	cfg.OSNoisePeriod = sim.Time(d.I64())
	cfg.OSNoiseDemand = sim.Time(d.I64())
	cfg.PkgIdleEnabled = d.Bool()
	cfg.PkgEntryDelay = sim.Time(d.I64())
	cfg.PkgUncoreLowW = d.F64()
	cfg.ClosedLoopConnections = int(d.I64())
	cfg.ThinkTime = sim.Time(d.I64())

	park := d.Bool()

	nhist := d.I64()
	if d.Err() == nil && (nhist < 0 || nhist > int64(len(data))) {
		return nil, fmt.Errorf("server: restore: implausible interval count %d", nhist)
	}
	var hist []intervalRecord
	for i := int64(0); i < nhist && d.Err() == nil; i++ {
		hist = append(hist, intervalRecord{
			window:   sim.Time(d.I64()),
			rate:     d.F64(),
			inflate:  d.F64(),
			throttle: d.Bool(),
			capFrac:  d.F64(),
		})
	}

	wantClock := sim.Time(d.I64())
	wantFired := d.U64()
	wantSnoops := d.U64()
	var wantRNG [3][4]uint64
	for i := range wantRNG {
		for j := range wantRNG[i] {
			wantRNG[i][j] = d.U64()
		}
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}

	prof, err := workload.ByName(profileName)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	if fp, _ := prof.Fingerprint(); fp != profileFP {
		return nil, fmt.Errorf("server: restore: profile %q has changed since capture (fingerprint mismatch)", profileName)
	}
	cfg.Profile = prof

	ins, err := NewInstance(cfg, park)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	for i, h := range hist {
		ins.SetServiceInflation(h.inflate)
		ins.SetTurboCap(h.throttle, h.capFrac)
		if _, err := ins.RunInterval(h.window, h.rate); err != nil {
			return nil, fmt.Errorf("server: restore: replay interval %d: %w", i, err)
		}
	}

	s := ins.s
	if got := s.eng.Now(); got != wantClock {
		return nil, fmt.Errorf("server: restore: replay clock %d differs from captured %d (simulator changed since capture?)", got, wantClock)
	}
	if got := s.eng.Fired(); got != wantFired {
		return nil, fmt.Errorf("server: restore: replay fired %d events, captured run fired %d (simulator changed since capture?)", got, wantFired)
	}
	if got := s.snoopsServed; got != wantSnoops {
		return nil, fmt.Errorf("server: restore: replay served %d snoops, captured run served %d (simulator changed since capture?)", got, wantSnoops)
	}
	for i, rng := range []interface{ State() [4]uint64 }{s.arrRand, s.svcRand, s.netRand} {
		if got := rng.State(); got != wantRNG[i] {
			return nil, fmt.Errorf("server: restore: RNG stream %d position diverged from capture (simulator changed since capture?)", i)
		}
	}
	return ins, nil
}
