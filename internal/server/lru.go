package server

import (
	"container/list"
	"sync"

	"ppscan"
	"ppscan/internal/obsv"
)

// lruCache bounds the response cache: clustering results are large (roles,
// cluster ids and memberships for every vertex), so an unbounded
// per-parameter cache grows without limit under parameter sweeps. Least
// recently used entries are evicted once cap is exceeded. Safe for
// concurrent use: every method takes the cache's own mutex.
type lruCache struct {
	cap int
	reg *obsv.Registry // counts cache.hits / cache.misses; nil counts nothing

	mu        sync.Mutex
	ll        *list.List // front = most recently used
	items     map[cacheKey]*list.Element
	evictions int64
	floor     uint64 // oldest epoch still admitted; raised by purgeBefore
}

type lruEntry struct {
	key cacheKey
	val *ppscan.Result
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{
		cap:   capacity,
		ll:    list.New(),
		items: map[cacheKey]*list.Element{},
	}
}

// get returns the cached result and marks it most recently used. Every
// call is one cache.hits or one cache.misses, counted after the cache's
// lock is dropped so lookups never serialize on the registry's.
func (c *lruCache) get(k cacheKey) (*ppscan.Result, bool) {
	var val *ppscan.Result
	c.mu.Lock()
	el, ok := c.items[k]
	if ok {
		c.ll.MoveToFront(el)
		val = el.Value.(*lruEntry).val
	}
	c.mu.Unlock()
	if ok {
		c.reg.Counter(obsv.MetricCacheHits).Inc()
	} else {
		c.reg.Counter(obsv.MetricCacheMisses).Inc()
	}
	return val, ok
}

// add inserts (or refreshes) an entry, evicting the least recently used
// one when the cache is full. An entry for an epoch already purged is
// dropped: its request loaded the snapshot before a mutation batch
// published the next one, nobody can ask for that epoch again, and
// retaining it would only displace live entries.
func (c *lruCache) add(k cacheKey, v *ppscan.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.epoch < c.floor {
		return
	}
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = v
		return
	}
	c.items[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.evictions++
	}
}

// len returns the number of cached entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// evicted returns how many entries capacity has pushed out so far.
func (c *lruCache) evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// purgeBefore drops every entry cached against an epoch older than cur,
// refuses such entries from now on, and returns how many were removed.
// Called after a mutation batch publishes a new snapshot: results
// computed over the old graph must never answer requests on the new one.
func (c *lruCache) purgeBefore(cur uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.floor = cur
	purged := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*lruEntry).key.epoch < cur {
			c.ll.Remove(el)
			delete(c.items, el.Value.(*lruEntry).key)
			purged++
		}
		el = next
	}
	return purged
}
