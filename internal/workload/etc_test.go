package workload

import (
	"testing"

	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func TestKVServiceMeanPlausible(t *testing.T) {
	svc, err := NewKVService(kvstore.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Calibrated to land in the same microsecond band as the closed-form
	// Memcached service (~5-15us).
	if svc.Mean() < 4*sim.Microsecond || svc.Mean() > 20*sim.Microsecond {
		t.Fatalf("mean demand = %v, want ~5-15us", svc.Mean())
	}
	if svc.Name() != "etc-kvstore" {
		t.Fatal("name wrong")
	}
	if hits, misses, _ := svc.store.Stats(); float64(hits) <= 0.5*float64(hits+misses) {
		t.Fatalf("warmed hit ratio = %d/%d", hits, hits+misses)
	}
}

func TestKVServiceSamples(t *testing.T) {
	svc, err := NewKVService(kvstore.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(3)
	var sum float64
	const n = 20_000
	for i := 0; i < n; i++ {
		d := svc.Sample(r)
		if d <= 0 {
			t.Fatal("non-positive demand")
		}
		sum += float64(d)
	}
	mean := sim.Time(sum / n)
	// Live mean should be near the construction-time estimate.
	ratio := float64(mean) / float64(svc.Mean())
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("live mean %v vs estimate %v", mean, svc.Mean())
	}
}

func TestMemcachedETCProfile(t *testing.T) {
	p, err := MemcachedETC(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Name != "memcached-etc" {
		t.Fatal("profile name wrong")
	}
	// Same network/scalability envelope as the closed-form profile.
	base := Memcached()
	if p.NetworkRTT != base.NetworkRTT || p.FreqScalability != base.FreqScalability {
		t.Fatal("ETC profile envelope diverged from Memcached()")
	}
}

func TestMemcachedETCBadConfig(t *testing.T) {
	bad := kvstore.DefaultConfig()
	bad.Keys = 0
	if _, err := NewKVService(bad, 1); err == nil {
		t.Fatal("bad config accepted")
	}
}
