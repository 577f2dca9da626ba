package workload

import (
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// KVService adapts a kvstore.Store into a ServiceDist: each sampled
// service time is the CPU demand of one simulated GET/SET/DELETE against
// a warmed, byte-bounded LRU cache with ETC-like key popularity and
// value sizes. Compared with the closed-form TailedService, this couples
// service-time variation to cache behaviour (miss bursts after evictions,
// size-dependent costs).
type KVService struct {
	store *kvstore.Store
	mean  sim.Time
}

// NewKVService builds and warms a store. The seed only drives warming
// and the popularity sampler; live draws use the rng passed to Sample.
func NewKVService(cfg kvstore.Config, seed uint64) (*KVService, error) {
	rng := xrand.NewStream(seed, "kvservice")
	st, err := kvstore.New(cfg, rng)
	if err != nil {
		return nil, err
	}
	// Warm the cache, then estimate the steady-state mean demand.
	const warm, measure = 60_000, 60_000
	for i := 0; i < warm; i++ {
		st.NextAccess(rng)
	}
	var sum float64
	for i := 0; i < measure; i++ {
		sum += float64(st.NextAccess(rng).Demand)
	}
	return &KVService{store: st, mean: sim.Time(sum / measure)}, nil
}

// Name implements ServiceDist.
func (s *KVService) Name() string { return "etc-kvstore" }

// Mean implements ServiceDist (steady-state empirical mean).
func (s *KVService) Mean() sim.Time { return s.mean }

// Sample implements ServiceDist.
func (s *KVService) Sample(r *xrand.Rand) sim.Time {
	return s.store.NextAccess(r).Demand
}

// MemcachedETC returns the high-fidelity Memcached profile: identical
// arrival process, network and scalability to Memcached(), but with
// service demands generated by the live ETC key-value store model
// instead of a closed-form distribution.
func MemcachedETC(seed uint64) (Profile, error) {
	svc, err := NewKVService(kvstore.DefaultConfig(), seed)
	if err != nil {
		return Profile{}, err
	}
	p := Memcached()
	p.Name = "memcached-etc"
	p.Service = svc
	return p, nil
}
