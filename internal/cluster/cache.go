package cluster

import (
	"net/netip"
	"sync"

	"cellspot/internal/cellmap"
	"cellspot/internal/obs"
)

// lookupCache is the gateway's generation-keyed response cache: an LRU of
// per-address lookup answers, all belonging to one map generation at a
// time. The key is conceptually (generation, addr); because PR 4's
// invariant makes generations fleet-wide and monotonic, the cache holds
// only the newest generation it has observed and invalidates wholesale
// the moment a newer one appears — from a health probe or a response
// body, whichever arrives first. That makes staleness structurally
// impossible: every cached answer carries the cache's current generation,
// and anything older is unreachable the instant the swap is visible.
//
// One mutex guards the whole structure. The gateway path does network
// I/O around every cache touch, so lock contention is noise there; the
// all-hit fast path takes the lock once per batch.
type lookupCache struct {
	mu    sync.Mutex
	cap   int
	gen   uint64
	items map[netip.Addr]*cacheItem
	head  *cacheItem // most recently used
	tail  *cacheItem // next eviction victim

	mHits          *obs.Counter
	mMisses        *obs.Counter
	mInvalidations *obs.Counter
	mEntries       *obs.Gauge
}

type cacheItem struct {
	addr       netip.Addr
	resp       cellmap.LookupResponse
	prev, next *cacheItem
}

// newLookupCache sizes a cache and registers its metrics; reg may be nil
// (obs constructors no-op on nil).
func newLookupCache(capacity int, reg *obs.Registry) *lookupCache {
	return &lookupCache{
		cap:   capacity,
		items: make(map[netip.Addr]*cacheItem, capacity),
		mHits: reg.Counter("cluster_cache_hits_total",
			"Gateway lookups answered from the generation-keyed cache."),
		mMisses: reg.Counter("cluster_cache_misses_total",
			"Gateway lookups that missed the cache and went to a shard."),
		mInvalidations: reg.Counter("cluster_cache_invalidations_total",
			"Wholesale cache invalidations triggered by observing a newer generation."),
		mEntries: reg.Gauge("cluster_cache_entries",
			"Entries resident in the gateway lookup cache."),
	}
}

// observe folds an externally seen generation into the cache: seeing a
// newer generation anywhere (health probe, response body) invalidates
// everything from before it.
func (c *lookupCache) observe(gen uint64) {
	c.mu.Lock()
	c.advanceLocked(gen)
	c.mu.Unlock()
}

func (c *lookupCache) advanceLocked(gen uint64) {
	if gen <= c.gen {
		return
	}
	if len(c.items) > 0 {
		c.mInvalidations.Inc()
	}
	c.gen = gen
	clear(c.items)
	c.head, c.tail = nil, nil
	c.mEntries.Set(0)
}

// get returns the cached answer for addr, which always belongs to the
// cache's current generation, plus that generation.
func (c *lookupCache) get(addr netip.Addr) (cellmap.LookupResponse, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	it, ok := c.items[addr]
	if !ok {
		c.mMisses.Inc()
		return cellmap.LookupResponse{}, c.gen, false
	}
	c.mHits.Inc()
	c.touchLocked(it)
	return it.resp, c.gen, true
}

// getMany fills out[i]/hit[i] for every addrs[i] present, under one lock
// acquisition so all hits are guaranteed to share the returned
// generation — the batch path's uniformity depends on that atomicity.
func (c *lookupCache) getMany(addrs []netip.Addr, out []cellmap.LookupResponse, hit []bool) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, a := range addrs {
		it, ok := c.items[a]
		if !ok {
			c.mMisses.Inc()
			continue
		}
		c.mHits.Inc()
		c.touchLocked(it)
		out[i], hit[i] = it.resp, true
	}
	return c.gen
}

// put stores an answer observed at gen. An answer from a newer generation
// first invalidates everything older; an answer from an older generation
// is dropped — caching it would be the stale-read bug this design exists
// to prevent.
func (c *lookupCache) put(gen uint64, addr netip.Addr, resp cellmap.LookupResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advanceLocked(gen)
	if gen < c.gen {
		return
	}
	if it, ok := c.items[addr]; ok {
		it.resp = resp
		c.touchLocked(it)
		return
	}
	it := &cacheItem{addr: addr, resp: resp}
	c.items[addr] = it
	c.pushFrontLocked(it)
	if len(c.items) > c.cap {
		victim := c.tail
		c.unlinkLocked(victim)
		delete(c.items, victim.addr)
	}
	c.mEntries.Set(int64(len(c.items)))
}

func (c *lookupCache) touchLocked(it *cacheItem) {
	if c.head == it {
		return
	}
	c.unlinkLocked(it)
	c.pushFrontLocked(it)
}

func (c *lookupCache) pushFrontLocked(it *cacheItem) {
	it.prev = nil
	it.next = c.head
	if c.head != nil {
		c.head.prev = it
	}
	c.head = it
	if c.tail == nil {
		c.tail = it
	}
}

func (c *lookupCache) unlinkLocked(it *cacheItem) {
	if it.prev != nil {
		it.prev.next = it.next
	} else {
		c.head = it.next
	}
	if it.next != nil {
		it.next.prev = it.prev
	} else {
		c.tail = it.prev
	}
	it.prev, it.next = nil, nil
}
