// Package readcache is the client-side read cache for the hot-key path:
// bounded LRU caches of posting-prefix chunks (consulted by every read
// session before it opens a key with MsgRead) and of fully
// resolved top-k results (consulted by the query layer before it
// explores the lattice at all). Under zipfian query skew a small cache
// absorbs most repeat reads locally, which is the only lever that takes
// hot-key load to zero instead of merely spreading it.
//
// Correctness rests on three invalidation rules, checked in this order:
//
//  1. Ring epoch: every entry is stamped with the owner node's
//     RingEpoch at fill time. A lookup presents the current epoch; any
//     mismatch deletes the entry. The owning peer additionally drops
//     the whole cache from its dht.OnRingChange callback, so a churn
//     event invalidates eagerly, not just on next touch.
//  2. Write watermark: the index write path calls Invalidate(key) for
//     every key it writes, so a cache never serves a posting list older
//     than the key's last locally observed write.
//  3. TTL: entries older than the configured lifetime are dropped on
//     access, bounding staleness against writes this peer never saw
//     (remote writers, replica anti-entropy).
//
// All methods are nil-receiver safe: a nil *Cache behaves as a
// permanently empty, never-filling cache, so call sites need no
// enabled-flag plumbing.
package readcache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Stats is a counter snapshot, exported as telemetry.
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
}

// Cache is a bounded, epoch-validated LRU keyed by string.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ttl   time.Duration // 0 = no TTL
	items map[string]*list.Element
	lru   *list.List // front = most recently used

	hits, misses, evictions, invalidations atomic.Int64

	clock func() time.Time // test seam; nil = time.Now
}

type entry struct {
	key    string
	epoch  uint64
	filled time.Time
	val    any
}

// New returns a cache bounded to capacity entries with the given TTL
// (ttl <= 0 disables the age check). capacity <= 0 returns nil — the
// disabled cache.
func New(capacity int, ttl time.Duration) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		cap:   capacity,
		ttl:   ttl,
		items: make(map[string]*list.Element, capacity),
		lru:   list.New(),
	}
}

func (c *Cache) now() time.Time {
	if c.clock != nil {
		return c.clock()
	}
	return time.Now()
}

// Get returns the value cached for key if it was filled at the given
// ring epoch and has not aged out. A stale entry (epoch mismatch or TTL
// expiry) is removed, counted as an invalidation, and reported as a
// miss.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*entry)
	if e.epoch != epoch || (c.ttl > 0 && c.now().Sub(e.filled) > c.ttl) {
		c.removeLocked(el)
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return e.val, true
}

// Put stores val for key at the given ring epoch, replacing any prior
// entry and evicting from the cold end past capacity.
func (c *Cache) Put(key string, epoch uint64, val any) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		e.epoch, e.filled, e.val = epoch, c.now(), val
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&entry{key: key, epoch: epoch, filled: c.now(), val: val})
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

// Invalidate drops key's entry if present (the write-watermark rule:
// the write path calls this for every key it writes).
func (c *Cache) Invalidate(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
		c.invalidations.Add(1)
	}
}

// Clear drops every entry — the eager arm of ring-change invalidation.
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Len()
	c.items = make(map[string]*list.Element, c.cap)
	c.lru.Init()
	c.invalidations.Add(int64(n))
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CounterStats returns the cumulative counters (zero for a nil cache,
// so disabled peers still export the telemetry families).
func (c *Cache) CounterStats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	delete(c.items, e.key)
	c.lru.Remove(el)
}
