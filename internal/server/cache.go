package server

import (
	"encoding/binary"
	"hash/maphash"
	"sync"

	"disasso/internal/dataset"
	"disasso/internal/query"
)

// supportCacheOn routes snapshot support estimates through the per-snapshot
// cache. It is the cache's one off-switch: tests flip it to run cache-off,
// and building with -tags support_nocache flips the default so the whole
// suite (including the e2e soak) and every binary run uncached — the same
// oracle device as internal/query's query_scan and internal/core's
// refine_replan tags.
var supportCacheOn = supportCacheOnDefault

// supportCacheEntries bounds each snapshot's cache: small enough to be noise
// next to the snapshot itself (an entry is ~64 bytes, so ~0.5 MiB per
// snapshot at worst), large enough to hold the whole hot head of a skewed
// query mix. Tests lower it to keep eviction churning.
var supportCacheEntries = 8192

// supportCache memoizes SupportResult-identical estimates for one snapshot.
// Scoping the cache to the snapshot is what makes invalidation free: a
// republish builds a new snapshot (with a fresh, empty cache) and swaps the
// registry pointer, and the old snapshot — cache included — is unreachable
// the moment in-flight readers drain. There is no cross-snapshot state to
// flush and no version check on the read path.
//
// Transparency is structural: the estimator is a pure function of the
// immutable snapshot, so a hit can only ever return exactly what the miss
// path would have computed (the cached-vs-uncached property test and the
// support_nocache CI build enforce this bit for bit).
//
// The cache is sharded to keep concurrent readers from serializing on one
// lock, and each shard is capped by entries with clock (second-chance)
// eviction: a hit sets the entry's referenced bit, eviction sweeps the
// shard's slot ring clearing bits until it finds an unreferenced victim.
// Repeat-heavy (Zipf) mixes therefore keep their head entries resident
// without any per-hit list surgery an LRU would need.
type supportCache struct {
	seed   maphash.Seed
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu   sync.Mutex
	m    map[string]int // key -> slot
	ring []cacheSlot    // capped at maxSlots
	hand int
	max  int
}

type cacheSlot struct {
	key string
	est query.Estimate
	ref bool
}

const cacheShards = 16

// newSupportCache returns an empty cache bounded to roughly
// supportCacheEntries, at least one entry per shard.
func newSupportCache() *supportCache {
	c := &supportCache{
		seed:   maphash.MakeSeed(),
		shards: make([]cacheShard, cacheShards),
		mask:   cacheShards - 1,
	}
	per := max(supportCacheEntries/cacheShards, 1)
	for i := range c.shards {
		c.shards[i].max = per
		c.shards[i].m = make(map[string]int, per)
	}
	return c
}

// cacheKey encodes a normalized itemset as the cache's string key: fixed
// 4-byte little-endian terms, so distinct itemsets cannot collide.
func cacheKey(s dataset.Record) string {
	b := make([]byte, 4*len(s))
	for i, t := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(t))
	}
	return string(b)
}

func (c *supportCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)&c.mask]
}

// get returns the cached estimate for the key, marking the entry recently
// used.
func (c *supportCache) get(key string) (query.Estimate, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.m[key]
	if !ok {
		return query.Estimate{}, false
	}
	sh.ring[slot].ref = true
	return sh.ring[slot].est, true
}

// put inserts the estimate, clock-evicting one resident entry when the
// shard is full. Racing puts of the same key are idempotent (both write the
// same pure-function result).
func (c *supportCache) put(key string, est query.Estimate) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[key]; ok {
		return
	}
	if len(sh.ring) < sh.max {
		sh.m[key] = len(sh.ring)
		sh.ring = append(sh.ring, cacheSlot{key: key, est: est})
		return
	}
	// Second-chance sweep: clear referenced bits until an unreferenced slot
	// comes up. Bounded: after one full lap every bit is clear.
	for sh.ring[sh.hand].ref {
		sh.ring[sh.hand].ref = false
		sh.hand = (sh.hand + 1) % len(sh.ring)
	}
	victim := sh.hand
	sh.hand = (sh.hand + 1) % len(sh.ring)
	delete(sh.m, sh.ring[victim].key)
	sh.m[key] = victim
	sh.ring[victim] = cacheSlot{key: key, est: est}
}

// len reports the resident entries across shards (for tests and stats).
func (c *supportCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.ring)
		sh.mu.Unlock()
	}
	return n
}

// support answers one itemset through the snapshot's cache (unless
// supportCacheOn is off), falling back to the immutable estimator. The
// itemset must be normalized.
func (sn *snapshot) support(itemset dataset.Record) query.Estimate {
	if !supportCacheOn {
		return sn.est.Support(itemset)
	}
	key := cacheKey(itemset)
	if est, ok := sn.cache.get(key); ok {
		return est
	}
	est := sn.est.Support(itemset)
	sn.cache.put(key, est)
	return est
}
