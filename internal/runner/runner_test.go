package runner

import (
	"bytes"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/cstate"
	"repro/internal/governor"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

func quickCfg() server.Config {
	return server.Config{
		Platform:   governor.Baseline,
		Profile:    workload.Memcached(),
		RatePerSec: 100e3,
		Duration:   40 * sim.Millisecond,
		Warmup:     5 * sim.Millisecond,
		Seed:       7,
	}
}

func TestKeyCacheability(t *testing.T) {
	cfg := quickCfg()
	k1, ok := Key(cfg)
	if !ok {
		t.Fatal("plain config not cacheable")
	}
	k2, _ := Key(cfg)
	if k1 != k2 {
		t.Fatal("key not deterministic")
	}
	other := cfg
	other.Seed = 8
	k3, _ := Key(other)
	if k3 == k1 {
		t.Fatal("different seeds share a key")
	}
	other = cfg
	other.Dispatch = server.DispatchPacked
	if k, _ := Key(other); k == k1 {
		t.Fatal("different dispatch policies share a key")
	}
	// Zero-value and explicitly-default knobs normalize to one key, so
	// experiments that spell out the default still hit the shared cache.
	explicit := cfg
	explicit.Dispatch = server.DispatchRoundRobin
	explicit.LoadGen = server.LoadOpenLoop
	if k, _ := Key(explicit); k != k1 {
		t.Fatal("explicit defaults keyed differently from zero values")
	}

	hooked := cfg
	hooked.TraceHook = func(int, sim.Time, cstate.ID) {}
	if _, ok := Key(hooked); ok {
		t.Fatal("trace-hooked config reported cacheable")
	}
	cat := cfg
	cat.Catalog = cstate.Skylake()
	if _, ok := Key(cat); ok {
		t.Fatal("custom-catalog config reported cacheable")
	}
	etc, err := workload.MemcachedETC(1)
	if err != nil {
		t.Fatal(err)
	}
	live := cfg
	live.Profile = etc
	if _, ok := Key(live); ok {
		t.Fatal("live-kvstore profile reported cacheable")
	}
}

func TestRunMemoizes(t *testing.T) {
	r := New(2)
	a, err := r.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// A cache hit returns the same Result value, sharing the PerCore
	// backing array — pointer equality proves no second simulation ran.
	if &a.PerCore[0] != &b.PerCore[0] {
		t.Fatal("second identical run was not served from cache")
	}
	if hits, misses := r.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}

	other := quickCfg()
	other.RatePerSec = 200e3
	c, err := r.Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if c.CompletedPerSec == a.CompletedPerSec {
		t.Fatal("different rate returned cached result")
	}
}

func TestConcurrentIdenticalRunsSingleFlight(t *testing.T) {
	r := New(4)
	results := make([]server.Result, 8)
	err := r.Each(len(results), func(i int) error {
		res, err := r.Run(quickCfg())
		results[i] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if &results[i].PerCore[0] != &results[0].PerCore[0] {
			t.Fatal("concurrent identical runs were not single-flighted")
		}
	}
	if hits, misses := r.Stats(); hits+misses != 8 || misses != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 7/1", hits, misses)
	}
}

func TestEachBoundsParallelismAndPropagatesErrors(t *testing.T) {
	r := New(3)
	var inFlight, peak atomic.Int64
	err := r.Each(16, func(i int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		defer inFlight.Add(-1)
		if i == 11 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("error not propagated: %v", err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("parallelism bound violated: peak %d > 3", p)
	}
}

func TestSweepPreservesOrder(t *testing.T) {
	r := New(4)
	rates := []float64{10e3, 100e3, 300e3}
	cfgs := make([]server.Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = quickCfg()
		cfgs[i].RatePerSec = rate
	}
	out, err := r.Sweep(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rates) {
		t.Fatalf("got %d results, want %d", len(out), len(rates))
	}
	for i, res := range out {
		if res.Config.RatePerSec != rates[i] {
			t.Fatalf("result %d is for rate %v, want %v", i, res.Config.RatePerSec, rates[i])
		}
	}
}

func TestUncacheableRunsExecute(t *testing.T) {
	r := New(2)
	var traced atomic.Int64
	cfg := quickCfg()
	cfg.TraceHook = func(int, sim.Time, cstate.ID) { traced.Add(1) }
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	first := traced.Load()
	if first == 0 {
		t.Fatal("trace hook never fired")
	}
	if _, err := r.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if traced.Load() == first {
		t.Fatal("uncacheable config was cached")
	}
}

// timelineSpec returns a small two-interval timeline over quickCfg.
func timelineSpec() TimelineSpec {
	return TimelineSpec{
		Node: quickCfg(),
		Park: true,
		Intervals: []Interval{
			{Window: 10 * sim.Millisecond, Rate: 100e3},
			{Window: 10 * sim.Millisecond, Rate: 0},
			{Window: 10 * sim.Millisecond, Rate: 200e3},
		},
	}
}

// TestRunTimelineMemoizes pins timeline memoization: identical specs
// share one execution (and one Stats hit), differing intervals or park
// flags do not.
func TestRunTimelineMemoizes(t *testing.T) {
	r := New(2)
	a, err := r.RunTimeline(timelineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Fatalf("timeline returned %d intervals, want 3", len(a))
	}
	b, err := r.RunTimeline(timelineSpec())
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("identical timeline specs did not share one memoized result")
	}
	hits, misses := r.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	// A different interval list is a different timeline.
	other := timelineSpec()
	other.Intervals[2].Rate = 250e3
	c, err := r.RunTimeline(other)
	if err != nil {
		t.Fatal(err)
	}
	if &c[0] == &a[0] {
		t.Error("distinct interval lists shared a cache slot")
	}
	// So is the same list with parking off.
	noPark := timelineSpec()
	noPark.Park = false
	d, err := r.RunTimeline(noPark)
	if err != nil {
		t.Fatal(err)
	}
	if &d[0] == &a[0] {
		t.Error("park and no-park timelines shared a cache slot")
	}
	// Parked interval really parked; the others not.
	if !a[1].Parked || a[0].Parked || a[2].Parked {
		t.Errorf("parked flags = %v/%v/%v, want false/true/false", a[0].Parked, a[1].Parked, a[2].Parked)
	}
}

// TestRunTimelineUncacheable pins that a timeline over an uncacheable
// node config (custom catalog) still executes, uncached.
func TestRunTimelineUncacheable(t *testing.T) {
	r := New(2)
	spec := timelineSpec()
	spec.Node.Catalog = cstate.Skylake()
	if _, ok := TimelineKey(spec); ok {
		t.Fatal("custom-catalog timeline reported cacheable")
	}
	a, err := r.RunTimeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunTimeline(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("uncacheable timeline returned %d/%d intervals", len(a), len(b))
	}
	if &a[0] == &b[0] {
		t.Error("uncacheable timelines shared a result")
	}
	if _, err := r.RunTimeline(TimelineSpec{Node: quickCfg()}); err == nil {
		t.Error("empty timeline accepted")
	}
}

// TestEachShortCircuitsOnFailure pins the cancellation contract: after
// one task fails, tasks that have not started yet are skipped instead
// of running the rest of the fleet to completion.
func TestEachShortCircuitsOnFailure(t *testing.T) {
	r := New(1) // serialize so the failure is observed before later launches
	var ran atomic.Int64
	err := r.Each(64, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return errors.New("node down")
		}
		return nil
	})
	if err == nil || err.Error() != "node down" {
		t.Fatalf("error not propagated: %v", err)
	}
	if n := ran.Load(); n > 4 {
		t.Errorf("%d of 64 tasks ran after the failure, want short-circuit", n)
	}
}

// TestClassStatsAccumulate pins the class-dedup accounting: counters
// start at zero and NoteClassDedup sums across scenario executions.
func TestClassStatsAccumulate(t *testing.T) {
	r := New(1)
	if n, c, k := r.ClassStats(); n != 0 || c != 0 || k != 0 {
		t.Fatalf("fresh runner class stats = %d/%d/%d, want zeros", n, c, k)
	}
	r.NoteClassDedup(100, 3, 6)
	r.NoteClassDedup(50, 50, 0)
	n, c, k := r.ClassStats()
	if n != 150 || c != 53 || k != 6 {
		t.Errorf("class stats = %d/%d/%d, want 150/53/6", n, c, k)
	}
}

// TestKeyEncoderMatchesOneShot pins the classifiers' reusing encoder to
// the one-shot keys: over a mixed fleet, one KeyEncoder handed every
// node in turn appends exactly AppendKey's and AppendTimelineKey's
// bytes, and refuses exactly the nodes they refuse. The fleet switches
// profile at every node, repeats a profile back to back, carries two
// distinct *MMPP2 with equal parameters and a pair of profiles that
// differ only in the sign of a zero (== but printed apart), and mixes
// in a non-fingerprintable MemcachedETC node and a custom-catalog node.
func TestKeyEncoderMatchesOneShot(t *testing.T) {
	etc, err := workload.MemcachedETC(1)
	if err != nil {
		t.Fatal(err)
	}
	posZero, negZero := workload.MySQL(), workload.MySQL()
	posZero.FreqScalability = 0
	negZero.FreqScalability = math.Copysign(0, -1)
	profiles := []workload.Profile{
		workload.Memcached(), workload.Kafka(), workload.Memcached(), workload.Memcached(),
		workload.Kafka(), workload.Kafka(), etc, workload.MySQL(), posZero, negZero, posZero,
	}
	var fleet []server.Config
	for i, p := range profiles {
		cfg := quickCfg()
		cfg.Profile = p
		cfg.Seed = uint64(i % 3)
		fleet = append(fleet, cfg)
	}
	custom := quickCfg()
	custom.Catalog = cstate.Skylake()
	fleet = append(fleet, custom, quickCfg())
	intervals := timelineSpec().Intervals

	var keys KeyEncoder
	var buf []byte
	for i := range fleet {
		want, wantOK := AppendKey([]byte("prefix"), fleet[i])
		got, gotOK := keys.AppendKey(append(buf[:0], "prefix"...), &fleet[i])
		if gotOK != wantOK || !bytes.Equal(got, want) {
			t.Errorf("node %d (%s): encoder key %v/%x, one-shot %v/%x", i, fleet[i].Profile.Name, gotOK, got, wantOK, want)
		}
		spec := TimelineSpec{Node: fleet[i], Park: i%2 == 0, Intervals: intervals}
		want, wantOK = AppendTimelineKey(nil, spec)
		buf, gotOK = keys.AppendTimelineKey(buf[:0], &fleet[i], spec.Park, intervals)
		if gotOK != wantOK || !bytes.Equal(buf, want) {
			t.Errorf("node %d (%s): encoder timeline key %v/%x, one-shot %v/%x", i, fleet[i].Profile.Name, gotOK, buf, wantOK, want)
		}
		if refuse := fleet[i].Profile.Name == etc.Name || fleet[i].Catalog != nil; wantOK == refuse {
			t.Errorf("node %d (%s): cacheable = %v", i, fleet[i].Profile.Name, wantOK)
		}
	}
}
