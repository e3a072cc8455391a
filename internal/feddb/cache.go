package feddb

import (
	"sync"

	"paratune/internal/measuredb"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// Cache is a read-through estimate cache over a measuredb store. Lookups
// hit the cache first; misses fall through to the store, estimate from
// whatever observations exist, and memoise the result. Store writes —
// local observes and federated applies alike — invalidate the touched key
// via the store's apply hook, so estimates never go stale after a sync
// round lands new observations.
type Cache struct {
	store *measuredb.Store
	est   sample.Estimator
	k     int
	max   int

	mu sync.Mutex //paralint:lockrank 26
	m  map[string]cacheEntry
	// ver fences the unlock window in Lookup: a fill computed outside the
	// lock is discarded when any invalidation landed in between.
	ver           uint64
	hits          uint64
	misses        uint64
	invalidations uint64
}

type cacheEntry struct {
	value     float64
	federated bool
	count     int
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits, Misses, Invalidations uint64
	Entries                     int
}

// NewCache builds a read-through cache over store, estimating with est once
// a config has at least k observations. max bounds the entry count (0 means
// 4096); the map is flushed wholesale when full — correctness never depends
// on retention. The cache registers itself as the store's apply hook.
func NewCache(store *measuredb.Store, est sample.Estimator, k, max int) *Cache {
	if k < 1 {
		k = 1
	}
	if max <= 0 {
		max = 4096
	}
	c := &Cache{store: store, est: est, k: k, max: max, m: make(map[string]cacheEntry)}
	store.SetApplyHook(c.invalidate)
	return c
}

// invalidate drops one key. The store fires this after releasing its own
// locks, so taking c.mu here cannot invert the rank ladder.
func (c *Cache) invalidate(key string) {
	c.mu.Lock()
	if _, ok := c.m[key]; ok {
		delete(c.m, key)
		c.invalidations++
	}
	c.ver++
	c.mu.Unlock()
}

// Lookup returns the cached (or freshly computed) estimate for p, whether
// any contributing observation arrived via federation, and how many
// observations backed it. ok is false when the store holds fewer than k
// observations for p. A hit allocates nothing: the key is built on the stack
// and becomes a string only when a fill stores it.
func (c *Cache) Lookup(p space.Point) (v float64, federated bool, count int, ok bool) {
	var kb [8 * 16]byte // room for 16 coordinates; wider points grow onto the heap
	key := measuredb.AppendKey(kb[:0], p)
	c.mu.Lock()
	if e, hit := c.m[string(key)]; hit {
		c.hits++
		c.mu.Unlock()
		return e.value, e.federated, e.count, true
	}
	c.misses++
	ver := c.ver
	c.mu.Unlock()

	obs, _, fed := c.store.AppendObsSource(nil, p, c.k)
	if len(obs) < c.k {
		return 0, fed, len(obs), false
	}
	v = c.est.Estimate(obs)
	c.mu.Lock()
	if c.ver == ver {
		if len(c.m) >= c.max {
			c.m = make(map[string]cacheEntry, c.max)
		}
		c.m[string(key)] = cacheEntry{value: v, federated: fed, count: len(obs)}
	}
	c.mu.Unlock()
	return v, fed, len(obs), true
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Invalidations: c.invalidations, Entries: len(c.m)}
}
