package kvstore

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func newStore(t *testing.T, cfg Config, seed uint64) (*Store, *xrand.Rand) {
	t.Helper()
	rng := xrand.New(seed)
	s, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s, rng
}

func TestZipfLocalityGivesHighHitRatio(t *testing.T) {
	s, rng := newStore(t, DefaultConfig(), 1)
	// Warm the cache, then measure the steady-state ratio incrementally.
	for i := 0; i < 150_000; i++ {
		s.NextAccess(rng)
	}
	h0, m0, _ := s.Stats()
	for i := 0; i < 150_000; i++ {
		s.NextAccess(rng)
	}
	h1, m1, _ := s.Stats()
	hr := float64(h1-h0) / float64((h1-h0)+(m1-m0))
	if hr < 0.80 {
		t.Fatalf("steady-state hit ratio = %.3f, want > 0.80 with Zipf locality", hr)
	}
}

func TestLargerCacheHitsMore(t *testing.T) {
	small := DefaultConfig()
	small.CacheBytes = 1 << 20
	big := DefaultConfig()
	big.CacheBytes = 256 << 20
	s1, r1 := newStore(t, small, 2)
	s2, r2 := newStore(t, big, 2)
	for i := 0; i < 150_000; i++ {
		s1.NextAccess(r1)
		s2.NextAccess(r2)
	}
	if hitRatio(s2) <= hitRatio(s1) {
		t.Fatalf("bigger cache %.3f not better than smaller %.3f", hitRatio(s2), hitRatio(s1))
	}
}

// hitRatio is GET hits / GET lookups so far.
func hitRatio(s *Store) float64 {
	hits, misses, _ := s.Stats()
	return float64(hits) / float64(hits+misses)
}

func TestCapacityRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 64 << 10
	s, rng := newStore(t, cfg, 3)
	for i := 0; i < 50_000; i++ {
		s.NextAccess(rng)
		if s.Bytes() > cfg.CacheBytes && s.Len() > 1 {
			t.Fatalf("cache %d bytes exceeds capacity %d with %d entries",
				s.Bytes(), cfg.CacheBytes, s.Len())
		}
	}
}

func TestValueSizeDeterministicPerKey(t *testing.T) {
	s, _ := newStore(t, DefaultConfig(), 4)
	for key := 0; key < 100; key++ {
		a, b := s.valueBytes(key), s.valueBytes(key)
		if a != b {
			t.Fatalf("key %d size changed: %d vs %d", key, a, b)
		}
		if a < s.cfg.MinValueBytes || a > s.cfg.MaxValueBytes {
			t.Fatalf("key %d size %d out of bounds", key, a)
		}
	}
}

func TestDemandPositiveAndMissCostsMore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 18 // tiny: frequent misses
	s, rng := newStore(t, cfg, 5)
	var hitSum, hitN, missSum, missN float64
	for i := 0; i < 100_000; i++ {
		a := s.NextAccess(rng)
		if a.Demand <= 0 {
			t.Fatal("non-positive demand")
		}
		if a.Op == Get {
			if a.Hit {
				hitSum += float64(a.Demand)
				hitN++
			} else {
				missSum += float64(a.Demand)
				missN++
			}
		}
	}
	if hitN == 0 || missN == 0 {
		t.Fatalf("need both hits (%v) and misses (%v)", hitN, missN)
	}
	if missSum/missN <= hitSum/hitN {
		t.Fatal("misses not more expensive than hits")
	}
}

func TestDeleteRemoves(t *testing.T) {
	s, _ := newStore(t, DefaultConfig(), 6)
	s.insert(42, 100)
	if !s.touch(42) {
		t.Fatal("inserted key not found")
	}
	s.remove(42)
	if s.touch(42) {
		t.Fatal("deleted key still present")
	}
	s.remove(42) // double delete is a no-op
}

func TestLRUEvictionOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.KeyBytes = 0
	cfg.CacheBytes = 300
	s, _ := newStore(t, cfg, 7)
	s.insert(1, 100)
	s.insert(2, 100)
	s.insert(3, 100)
	s.touch(1) // 1 is now most recent; 2 is LRU
	s.insert(4, 100)
	if s.touch(2) {
		t.Fatal("LRU key 2 not evicted")
	}
	if !s.touch(1) || !s.touch(3) || !s.touch(4) {
		t.Fatal("wrong keys evicted")
	}
}

func TestStatsAndOps(t *testing.T) {
	s, rng := newStore(t, DefaultConfig(), 8)
	ops := map[Op]int{}
	for i := 0; i < 50_000; i++ {
		a := s.NextAccess(rng)
		ops[a.Op]++
	}
	if ops[Get] < ops[Set]*5 {
		t.Fatalf("GET not dominant: %v", ops)
	}
	hits, misses, sets := s.Stats()
	if hits+misses == 0 || sets == 0 {
		t.Fatal("counters not advancing")
	}
	for _, o := range []Op{Get, Set, Delete} {
		if o.String() == "" {
			t.Fatal("empty op string")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Keys = 0
	if _, err := New(bad, xrand.New(1)); err == nil {
		t.Fatal("zero keys accepted")
	}
	bad = DefaultConfig()
	bad.GetFraction = 0.9
	bad.SetFraction = 0.3
	if _, err := New(bad, xrand.New(1)); err == nil {
		t.Fatal("fractions > 1 accepted")
	}
	bad = DefaultConfig()
	bad.MaxValueBytes = 1
	if _, err := New(bad, xrand.New(1)); err == nil {
		t.Fatal("bad size bounds accepted")
	}
}

// Property: cache byte accounting matches the sum of resident entries.
func TestPropertyByteAccounting(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		cfg := DefaultConfig()
		cfg.CacheBytes = 1 << 20
		rng := xrand.New(seed)
		s, err := New(cfg, rng)
		if err != nil {
			return false
		}
		for i := 0; i < int(n); i++ {
			s.NextAccess(rng)
		}
		sum := 0
		for e := s.lru.Front(); e != nil; e = e.Next() {
			sum += e.Value.(*entry).bytes
		}
		return sum == s.Bytes() && s.lru.Len() == len(s.index)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
