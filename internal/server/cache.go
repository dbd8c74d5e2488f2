// Package server is the HTTP/JSON serving layer over dccs.Engine: one
// long-lived engine per loaded graph, an LRU result cache keyed by the
// engine's canonical cache key, singleflight coalescing of identical
// concurrent queries, bounded admission with backpressure, Prometheus
// text metrics, and snapshot-backed warm starts. See API.md for the
// endpoint and metrics reference and DESIGN.md for the cache-key and
// coalescing soundness arguments.
package server

import (
	"container/list"
	"sync"
	"sync/atomic"

	dccs "repro"
)

// resultCache is a fixed-capacity LRU over computed query results. A
// cached *dccs.Result is immutable by contract — the engine hands out
// fresh slices per query and the server never mutates a result after
// insertion — so hits can share the stored pointer without copying.
type resultCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used; values are *cacheEntry
	byKey    map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key string
	res *dccs.Result
}

// newResultCache returns an LRU holding at most capacity entries;
// capacity < 1 disables caching (every Get misses, Put is a no-op).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		order:    list.New(),
		byKey:    map[string]*list.Element{},
	}
}

// Get returns the cached result for key, promoting it to most recently
// used, or nil on a miss, and counts the lookup as a hit or a miss.
func (c *resultCache) Get(key string) *dccs.Result {
	res := c.Recheck(key)
	if res == nil {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return res
}

// Recheck is Get without counting, for a second lookup of a key whose
// first lookup, already counted, missed.
func (c *resultCache) Recheck(key string) *dccs.Result {
	if c.capacity < 1 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res
}

// Put stores res under key, evicting the least recently used entry when
// the cache is full. Re-putting an existing key refreshes its recency
// and replaces its value (the two values are interchangeable anyway:
// equal keys mean equal results).
func (c *resultCache) Put(key string, res *dccs.Result) {
	if c.capacity < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	if c.order.Len() >= c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
}

// Len returns the current number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
