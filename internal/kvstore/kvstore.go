// Package kvstore models an ETC-like key-value caching service (the
// Facebook ETC workload of Atikoglu et al. [135], which the paper's
// Mutilate load generator replays): a Zipf-popular keyspace, key-hashed
// value sizes, a byte-bounded LRU cache, and a CPU-demand model for
// GET/SET operations. It provides the service-time generator behind the
// high-fidelity Memcached profile.
package kvstore

import (
	"container/list"
	"fmt"

	"repro/internal/sim"
	"repro/internal/xrand"
)

// Op is a request operation.
type Op int

// Operations, GET-dominant per ETC.
const (
	Get Op = iota
	Set
	Delete
)

func (o Op) String() string {
	switch o {
	case Get:
		return "GET"
	case Set:
		return "SET"
	default:
		return "DELETE"
	}
}

// Config parameterizes the store and its demand model.
type Config struct {
	// Keys is the keyspace size.
	Keys int
	// ZipfS is the popularity skew (ETC is strongly skewed; ~1.0).
	ZipfS float64
	// CacheBytes bounds the LRU cache.
	CacheBytes int

	// GetFraction / SetFraction / DeleteFraction must sum to <= 1; the
	// remainder is treated as Get. ETC: ~30:1 GET:SET.
	GetFraction, SetFraction, DeleteFraction float64

	// Value-size model: log-normal body with the given mean/CV, clamped
	// to [MinValueBytes, MaxValueBytes]. Each key's size is a pure
	// function of its id, as in a real store.
	MeanValueBytes, ValueCV      float64
	MinValueBytes, MaxValueBytes int
	KeyBytes                     int

	// CPU demand model (at the profile's reference frequency).
	BaseGetNS, BaseSetNS float64
	PerByteNS            float64
	MissPenaltyNS        float64
}

// DefaultConfig returns ETC-like parameters calibrated so the mean
// demand lands near the paper-calibrated Memcached profile (~7-9 us).
func DefaultConfig() Config {
	return Config{
		Keys:           200_000,
		ZipfS:          1.01,
		CacheBytes:     48 << 20, // 48 MiB slice of the cache
		GetFraction:    0.92,
		SetFraction:    0.07,
		DeleteFraction: 0.01,
		MeanValueBytes: 360, ValueCV: 1.6,
		MinValueBytes: 16, MaxValueBytes: 8192,
		KeyBytes:      36,
		BaseGetNS:     4500,
		BaseSetNS:     6000,
		PerByteNS:     2.2,
		MissPenaltyNS: 9000,
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Keys <= 0 || c.CacheBytes <= 0 {
		return fmt.Errorf("kvstore: keys/cache must be positive")
	}
	if c.GetFraction+c.SetFraction+c.DeleteFraction > 1+1e-9 {
		return fmt.Errorf("kvstore: op fractions exceed 1")
	}
	if c.MinValueBytes <= 0 || c.MaxValueBytes < c.MinValueBytes {
		return fmt.Errorf("kvstore: bad value size bounds")
	}
	return nil
}

type entry struct {
	key   int
	bytes int
	elem  *list.Element
}

// Store is a byte-bounded LRU key-value cache with an attached access
// generator and CPU-demand model.
type Store struct {
	cfg    Config
	zipf   *xrand.Zipf
	lru    *list.List // front = most recent; values are *entry
	index  map[int]*entry
	bytes  int
	hits   uint64
	misses uint64
	sets   uint64
}

// New builds a store. The Zipf sampler draws from rng; accesses later
// draw from whatever rng is passed to Access (usually the same stream).
func New(cfg Config, rng *xrand.Rand) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Store{
		cfg:   cfg,
		zipf:  xrand.NewZipf(rng, cfg.Keys, cfg.ZipfS),
		lru:   list.New(),
		index: make(map[int]*entry),
	}, nil
}

// valueBytes derives a key's value size deterministically from its id:
// a hashed id seeds a one-draw log-normal.
func (s *Store) valueBytes(key int) int {
	r := xrand.New(uint64(key)*0x9E3779B97F4A7C15 + 1)
	v := int(r.LogNormalMeanCV(s.cfg.MeanValueBytes, s.cfg.ValueCV))
	if v < s.cfg.MinValueBytes {
		v = s.cfg.MinValueBytes
	}
	if v > s.cfg.MaxValueBytes {
		v = s.cfg.MaxValueBytes
	}
	return v
}

// Access is one simulated request against the store.
type Access struct {
	Op         Op
	Key        int
	ValueBytes int
	Hit        bool
	Demand     sim.Time
}

// NextAccess draws an operation, applies it to the cache, and returns
// the access record including its CPU demand.
func (s *Store) NextAccess(r *xrand.Rand) Access {
	key := s.zipf.Next()
	u := r.Float64()
	var op Op
	switch {
	case u < s.cfg.DeleteFraction:
		op = Delete
	case u < s.cfg.DeleteFraction+s.cfg.SetFraction:
		op = Set
	default:
		op = Get
	}
	size := s.valueBytes(key)
	acc := Access{Op: op, Key: key, ValueBytes: size}
	switch op {
	case Get:
		if s.touch(key) {
			acc.Hit = true
			s.hits++
			acc.Demand = s.demand(s.cfg.BaseGetNS + s.cfg.PerByteNS*float64(size+s.cfg.KeyBytes))
		} else {
			s.misses++
			// A miss still parses the request and allocates+fills the
			// entry when the backend responds (fill modeled as part of
			// the miss penalty), then responds.
			s.insert(key, size)
			acc.Demand = s.demand(s.cfg.BaseGetNS + s.cfg.MissPenaltyNS +
				s.cfg.PerByteNS*float64(size+s.cfg.KeyBytes))
		}
	case Set:
		s.sets++
		s.insert(key, size)
		acc.Demand = s.demand(s.cfg.BaseSetNS + s.cfg.PerByteNS*float64(size+s.cfg.KeyBytes))
	case Delete:
		s.remove(key)
		acc.Demand = s.demand(s.cfg.BaseGetNS)
	}
	return acc
}

func (s *Store) demand(ns float64) sim.Time {
	if ns < 1 {
		ns = 1
	}
	return sim.Time(ns)
}

// touch looks up a key and refreshes its recency.
func (s *Store) touch(key int) bool {
	e, ok := s.index[key]
	if !ok {
		return false
	}
	s.lru.MoveToFront(e.elem)
	return true
}

// insert adds or refreshes a key, evicting LRU entries to fit.
func (s *Store) insert(key, size int) {
	total := size + s.cfg.KeyBytes
	if e, ok := s.index[key]; ok {
		s.bytes += total - e.bytes
		e.bytes = total
		s.lru.MoveToFront(e.elem)
	} else {
		e := &entry{key: key, bytes: total}
		e.elem = s.lru.PushFront(e)
		s.index[key] = e
		s.bytes += total
	}
	for s.bytes > s.cfg.CacheBytes && s.lru.Len() > 1 {
		back := s.lru.Back()
		s.evict(back.Value.(*entry))
	}
}

func (s *Store) remove(key int) {
	if e, ok := s.index[key]; ok {
		s.evict(e)
	}
}

func (s *Store) evict(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.index, e.key)
	s.bytes -= e.bytes
}

// Len returns the number of cached entries.
func (s *Store) Len() int { return s.lru.Len() }

// Bytes returns the cached byte total.
func (s *Store) Bytes() int { return s.bytes }

// Stats returns cumulative counters.
func (s *Store) Stats() (hits, misses, sets uint64) {
	return s.hits, s.misses, s.sets
}
