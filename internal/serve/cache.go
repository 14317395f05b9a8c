package serve

import (
	"container/list"
	"encoding/json"
	"sync"
)

// resultCache is the digest-keyed LRU cache of finished job results.
// Simulations are deterministic in their spec digest (see
// harness.RunSpec.Digest), so a cached result is byte-for-byte what a
// re-simulation would produce; serving it is free and exact. Only
// successful results are cached — failures, cancellations and timeouts
// always re-run.
type resultCache struct {
	mu  sync.Mutex
	cap int
	// order holds *cacheEntry, most recently used at the front.
	order   *list.List
	entries map[string]*list.Element
}

type cacheEntry struct {
	digest string
	result json.RawMessage
}

// newResultCache returns a cache bounded to capacity results
// (capacity < 1 disables caching entirely).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached result for digest, refreshing its recency.
func (c *resultCache) get(digest string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[digest]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// put stores a result, evicting the least recently used entry when the
// cache is full.
func (c *resultCache) put(digest string, result json.RawMessage) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[digest]; ok {
		el.Value.(*cacheEntry).result = result
		c.order.MoveToFront(el)
		return
	}
	c.entries[digest] = c.order.PushFront(&cacheEntry{digest: digest, result: result})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*cacheEntry).digest)
	}
}
