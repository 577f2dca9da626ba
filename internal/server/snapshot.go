package server

import (
	"errors"
	"fmt"
	"math"

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
//	state        the warm state Clone copies (AppendState): interval
//	             count and started flag, the engine clock and pending
//	             events, model scalars, meters, RNG stream positions,
//	             turbo budget, arrival modulation, generator,
//	             dispatcher, collector histograms and every core
//	trailer      CRC-32C of everything before it
//
// Restore checks the trailer before it reads a field, rebuilds the
// instance with NewInstance from the config block, so construction-
// derived constants (event kinds, precomputed power and speedup tables)
// are never encoded, and then overwrites the mutable state with the
// decoded one. It never re-simulates: a restore costs O(state), not
// O(history), like a Clone across processes. Decoding checks every
// count against the bytes left before it allocates, and rejects state
// a later step could not run from: pending timers that disagree with
// the core, package or arrival state they act on (one timer per
// in-flight transition, completion or background stream, core indices
// in range), or a time mark past the clock.
//
// Versioning policy: the version byte is bumped on ANY change to the
// encoding, or to the simulator state it captures; decode rejects
// unknown versions, a bad checksum, truncated payloads and trailing
// bytes outright. There is no cross-version migration — a snapshot is a
// checkpoint of one simulator build, not an archival format — and the
// pinned-bytes tests fail on any change that would need one. Version 2
// replaced version 1's replayed interval history with the warm state;
// version 3 dropped the per-event priority word from the engine state.
const snapshotVersion = 3

// minCoreStateBytes bounds a core's encoded state from below (machine,
// meter, request counters and flags), so a config block naming more
// cores than the rest of the payload could describe is rejected before
// NewInstance allocates them.
const minCoreStateBytes = 200

// Snapshot serializes the instance so Restore can rebuild it in another
// process (or after this one exits) with bit-identical future behavior.
//
// Not every instance is snapshottable: the config must be expressible
// by value. A custom Catalog, or a Profile that is not a registered
// built-in (workload.ByName), cannot travel through bytes and is
// rejected here, at capture time, rather than producing a payload
// that cannot restore.
func (ins *Instance) Snapshot() ([]byte, error) {
	fp, err := snapshottable(&ins.orig)
	if err != nil {
		return nil, err
	}
	var e snapbuf.Encoder
	e.U8(snapshotVersion)
	encodeConfig(&e, &ins.orig, fp)
	e.Bool(ins.park)
	if err := ins.appendState(&e); err != nil {
		return nil, err
	}
	e.Seal()
	return e.Buf, nil
}

// snapshottable returns the profile fingerprint of cfg, or an error if
// the config cannot travel through bytes: a custom Catalog, a profile
// that is not a registered built-in or differs from it, or one whose
// components hold live state no snapshot encodes.
func snapshottable(cfg *Config) ([]byte, error) {
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
	return fp, nil
}

// AppendState appends the instance's warm state, the part of a
// Snapshot after the config block and park flag. A fleet checkpoint
// embeds it per node and rebuilds the node from its own config with
// DecodeState. It refuses what Snapshot refuses.
func AppendState(e *snapbuf.Encoder, ins *Instance) error {
	if _, err := snapshottable(&ins.orig); err != nil {
		return err
	}
	return ins.appendState(e)
}

func (ins *Instance) appendState(e *snapbuf.Encoder) error {
	e.Bool(ins.started)
	e.I64(int64(ins.index))
	e.U64(ins.preSnoops)
	if err := ins.s.appendState(e); err != nil {
		return fmt.Errorf("server: snapshot: %w", err)
	}
	return nil
}

// DecodeState rebuilds an instance from what AppendState wrote:
// NewInstance(cfg, park), then its mutable state overwritten with the
// decoded one. cfg and park must be the ones the captured instance was
// built with. Decode errors are also left in d.
func DecodeState(d *snapbuf.Decoder, cfg Config, park bool) (*Instance, error) {
	ins, err := NewInstance(cfg, park)
	if err != nil {
		return nil, err
	}
	ins.started = d.Bool()
	index := d.I64()
	ins.preSnoops = d.U64()
	ins.s.decodeState(d, ins.started)
	if d.Err() == nil && index < 0 {
		d.Fail(fmt.Errorf("server: corrupt interval count %d", index))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	ins.index = int(index)
	return ins, nil
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

// Restore rebuilds an instance from a Snapshot payload: the checksum is
// verified first, then the config block is decoded strictly (unknown
// version, truncation and trailing bytes are errors), the instance is
// constructed by NewInstance, and its warm state is decoded over the
// constructed one. Nothing is re-simulated.
func Restore(data []byte) (*Instance, error) {
	d, err := snapbuf.Open(data)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
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
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	cores := cfg.Cores
	if cores == 0 {
		cores = DefaultCores
	}
	if cores < 0 || cores > d.Remaining()/minCoreStateBytes {
		return nil, fmt.Errorf("server: restore: %d cores cannot fit the %d state bytes left", cfg.Cores, d.Remaining())
	}

	prof, err := workload.ByName(profileName)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	if fp, _ := prof.Fingerprint(); fp != profileFP {
		return nil, fmt.Errorf("server: restore: profile %q has changed since capture (fingerprint mismatch)", profileName)
	}
	cfg.Profile = prof

	ins, err := DecodeState(d, cfg, park)
	if err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("server: restore: %w", err)
	}
	return ins, nil
}

// ResultConfig returns the Config the interval results of an instance
// built from cfg report before RunInterval stamps each window's rate
// and length: cfg as NewInstance keeps it, with defaults applied. A
// fleet checkpoint rebuilds its results' configs from it instead of
// encoding one per result.
func ResultConfig(cfg Config) Config {
	cfg.RatePerSec = 0
	cfg.Schedule = nil
	return cfg.Defaults()
}

// Word counts of the three blocks an interval result encodes: the
// header, a measured Result's scalars and one CoreStats.
const (
	headerWords = 4
	resultWords = 2*int(cstate.NumStates) + 3 + 5*7 + 7
	coreWords   = int(cstate.NumStates) + 1
)

// wordCodec moves fields to or from a word block in one fixed order, so
// the encoder and the decoder of a block are one function.
type wordCodec struct {
	w    []uint64
	n    int
	load bool
}

func (c *wordCodec) u64(p *uint64) {
	if c.load {
		*p = c.w[c.n]
	} else {
		c.w[c.n] = *p
	}
	c.n++
}

func (c *wordCodec) i64(p *int64) {
	if c.load {
		*p = int64(c.w[c.n])
	} else {
		c.w[c.n] = uint64(*p)
	}
	c.n++
}

func (c *wordCodec) f64(p *float64) {
	if c.load {
		*p = math.Float64frombits(c.w[c.n])
	} else {
		c.w[c.n] = math.Float64bits(*p)
	}
	c.n++
}

func (c *wordCodec) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	*p = int(v)
}

// header, result and core code the three blocks.
func (c *wordCodec) header(r *IntervalResult) {
	c.int(&r.Index)
	c.i64((*int64)(&r.Start))
	c.i64((*int64)(&r.End))
	c.f64(&r.RateQPS)
}

func (c *wordCodec) result(res *Result) {
	for i := range res.Residency {
		c.f64(&res.Residency[i])
	}
	for i := range res.TransitionsPerSec {
		c.f64(&res.TransitionsPerSec[i])
	}
	c.f64(&res.AvgCorePowerW)
	c.f64(&res.PackagePowerW)
	c.f64(&res.EnergyJ)
	for _, l := range [...]*LatencySummary{&res.Server, &res.EndToEnd, &res.Breakdown.Wake, &res.Breakdown.Queue, &res.Breakdown.Service} {
		c.u64(&l.Count)
		for _, v := range [...]*float64{&l.AvgUS, &l.P50US, &l.P95US, &l.P99US, &l.P999US, &l.MaxUS} {
			c.f64(v)
		}
	}
	c.f64(&res.CompletedPerSec)
	c.f64(&res.TurboFraction)
	c.i64((*int64)(&res.MeasuredDuration))
	c.f64(&res.UncoreAvgW)
	c.f64(&res.PkgIdleFraction)
	c.u64(&res.SnoopsServed)
	c.int(&res.MaxQueueDepth)
}

func (c *wordCodec) core(cs *CoreStats) {
	for i := range cs.Residency {
		c.f64(&cs.Residency[i])
	}
	c.f64(&cs.AvgPowerW)
}

// AppendIntervalResult appends one interval measurement as word blocks
// (snapbuf.Encoder.Words: a parked or idle node's empty fields cost a
// bit each). Result.Config is left out (SetResultConfig rebuilds it),
// as is each CoreStats' Core, which is its position; a crashed
// interval's Result is zero and only its header and flags are written.
func AppendIntervalResult(e *snapbuf.Encoder, r *IntervalResult) {
	var buf [resultWords]uint64
	c := wordCodec{w: buf[:headerWords]}
	c.header(r)
	e.Words(c.w)
	e.Bool(r.Parked)
	e.Bool(r.Down)
	e.Bool(r.Restarted)
	if r.Down {
		return
	}
	c = wordCodec{w: buf[:]}
	c.result(&r.Result)
	e.Words(c.w)
	e.I64(int64(len(r.Result.PerCore)))
	for i := range r.Result.PerCore {
		c = wordCodec{w: buf[:coreWords]}
		c.core(&r.Result.PerCore[i])
		e.Words(c.w)
	}
}

// DecodeIntervalResult reads what AppendIntervalResult wrote, leaving
// Result.Config for SetResultConfig. A measured interval must carry one
// CoreStats per core of the cores-core node that measured it. Errors go
// to d.
func DecodeIntervalResult(d *snapbuf.Decoder, cores int) IntervalResult {
	var r IntervalResult
	var buf [resultWords]uint64
	c := wordCodec{w: buf[:headerWords], load: true}
	d.Words(c.w)
	c.header(&r)
	r.Parked, r.Down, r.Restarted = d.Bool(), d.Bool(), d.Bool()
	if r.Down || d.Err() != nil {
		return r
	}
	c = wordCodec{w: buf[:], load: true}
	d.Words(c.w)
	c.result(&r.Result)
	n := d.Count((coreWords + 7) / 8)
	if d.Err() == nil && n != cores {
		d.Fail(errors.New("server: corrupt interval result: per-core count differs from the core count"))
	}
	if d.Err() != nil {
		return r
	}
	r.Result.PerCore = make([]CoreStats, n)
	for i := range r.Result.PerCore {
		c = wordCodec{w: buf[:coreWords], load: true}
		d.Words(c.w)
		r.Result.PerCore[i].Core = i
		c.core(&r.Result.PerCore[i])
	}
	return r
}

// SetResultConfig sets a decoded interval's Result.Config the way
// RunInterval sets it: base, the ResultConfig of the instance that
// measured the interval, with the window's rate and length. A crashed
// interval's Result stays zero.
func SetResultConfig(r *IntervalResult, base *Config) {
	if r.Down {
		return
	}
	r.Result.Config = *base
	r.Result.Config.RatePerSec = r.RateQPS
	r.Result.Config.Duration = r.End - r.Start
}
