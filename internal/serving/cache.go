// Package serving is the batch-query serving tier in front of TDStore:
// a hot-result cache for decoded top-K lists and user histories, with
// negative caching of absent keys. A miss reads the store on the
// caller's goroutine, all of a request's missed keys in one BatchGet. The
// shape follows the enhanced batch query architecture of Bilibili's
// production recommender (arXiv:2409.00400): the front end of Fig. 9
// answers billions of point queries a day whose working set is violently
// skewed, so the read path pays for the store only on cold keys.
//
// Consistency: the tier serves results up to the cache TTL stale. The
// window is bounded and small (the pipeline itself only publishes on
// combiner flushes), matching the paper's "accepting sub-second
// staleness" serving contract. A negative entry ("absent") lasts until
// its key is written, when the writer tells the tier
// (Reader.DropNegative), and the negative TTL only bounds a miss whose
// store read raced that write: a key's first write is not hidden behind
// an answer cached before it.
package serving

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"tencentrec/internal/obsv"
)

// cacheShards spreads the cache over independent locks so concurrent
// front-end requests do not serialize on one mutex.
const cacheShards = 16

// Default cache geometry. TTL bounds staleness of positive entries;
// negative entries (key known absent) expire faster, and a writer that
// calls Reader.DropNegative removes them at the write.
const (
	DefaultCacheTTL    = 500 * time.Millisecond
	DefaultNegativeTTL = 100 * time.Millisecond
	DefaultMaxEntries  = 65536
)

// centry is one cached decoded result. neg marks a negative entry: the
// key was looked up and did not exist.
type centry struct {
	key string
	val any
	neg bool
	exp int64 // obsv.Now() deadline
}

// cacheShard is one lock's worth of the cache: an LRU list (front =
// most recent) with a key index.
type cacheShard struct {
	mu    sync.Mutex
	items map[string]*list.Element
	lru   *list.List
	cap   int
}

// Cache is a size-bounded TTL cache for decoded serving results with
// negative caching and LRU eviction. Safe for concurrent use. Values
// stored are shared with every subsequent hit — callers must treat them
// as immutable.
type Cache struct {
	shards [cacheShards]cacheShard
	ttl    int64 // positive-entry TTL in ns
	negTTL int64 // negative-entry TTL in ns

	len atomic.Int64 // total live entries, maintained on insert/remove
	// negs counts the live negative entries among them, so a write into a
	// cache that holds none (dropNegative) costs one atomic load.
	negs atomic.Int64
	// gen counts Invalidate calls. A reader loads it before its store read
	// and put drops the result if it has moved since: a read that began
	// before an Invalidate must not cache what it read.
	gen atomic.Uint64

	// Instrument wires these; nil-checked on every touch.
	hits       *obsv.Counter
	misses     *obsv.Counter
	negHits    *obsv.Counter
	negDropped *obsv.Counter
	evictions  *obsv.Counter
}

// NewCache builds a cache holding at most maxEntries decoded results
// (0 uses DefaultMaxEntries), with the given positive and negative TTLs
// (0 uses the defaults).
func NewCache(ttl, negTTL time.Duration, maxEntries int) *Cache {
	if ttl <= 0 {
		ttl = DefaultCacheTTL
	}
	if negTTL <= 0 {
		negTTL = DefaultNegativeTTL
	}
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	perShard := maxEntries / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{ttl: int64(ttl), negTTL: int64(negTTL)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			items: make(map[string]*list.Element),
			lru:   list.New(),
			cap:   perShard,
		}
	}
	return c
}

// shardFor picks the shard of key with an inline FNV-1a hash
// (allocation-free; the same construction as the store's shard pick).
func (c *Cache) shardFor(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%cacheShards]
}

// Get returns the cached decoded value for key. ok reports a live
// entry; neg reports that the live entry is negative (key known
// absent), in which case val is nil. Expired entries are removed and
// count as misses.
func (c *Cache) Get(key string) (val any, neg, ok bool) {
	sh := c.shardFor(key)
	now := obsv.Now()
	sh.mu.Lock()
	el, exists := sh.items[key]
	if !exists {
		sh.mu.Unlock()
		inc(c.misses)
		return nil, false, false
	}
	e := el.Value.(*centry)
	if now >= e.exp {
		sh.lru.Remove(el)
		delete(sh.items, key)
		sh.mu.Unlock()
		c.removed(1, negCount(e.neg))
		inc(c.misses)
		return nil, false, false
	}
	sh.lru.MoveToFront(el)
	val, neg = e.val, e.neg
	sh.mu.Unlock()
	if neg {
		inc(c.negHits)
		return nil, true, true
	}
	inc(c.hits)
	return val, false, true
}

// dropNegative removes the negative entries under keys: they have just been
// written, so "absent" is no longer true of them. Positive entries stay (a
// stale value is bounded by the TTL; a stale "absent" hides the first write
// of a key for as long). With no live negative entry it is one atomic load.
func (c *Cache) dropNegative(keys []string) {
	if c.negs.Load() == 0 {
		return
	}
	for _, key := range keys {
		sh := c.shardFor(key)
		sh.mu.Lock()
		el, ok := sh.items[key]
		drop := ok && el.Value.(*centry).neg
		if drop {
			sh.lru.Remove(el)
			delete(sh.items, key)
		}
		sh.mu.Unlock()
		if drop {
			c.removed(1, 1)
			inc(c.negDropped)
		}
	}
}

// removed accounts for n entries leaving the cache, negs of them negative.
func (c *Cache) removed(n, negs int64) {
	c.len.Add(-n)
	c.negs.Add(-negs)
}

// put inserts an entry unless the cache was invalidated after gen was
// loaded. The check runs under the shard lock: Invalidate bumps gen before
// it clears the shards, so an entry put under the old gen is cleared. A
// negative entry (neg) records that key does not exist, for NegativeTTL or
// until the key is written (dropNegative), whichever comes first; a miss
// whose store read raced the write is recorded after the drop and lasts
// the TTL.
func (c *Cache) put(key string, val any, neg bool, gen uint64) {
	sh := c.shardFor(key)
	now := obsv.Now()
	exp := now + c.ttl
	if neg {
		exp = now + c.negTTL
	}
	sh.mu.Lock()
	if c.gen.Load() != gen {
		sh.mu.Unlock()
		return
	}
	if el, exists := sh.items[key]; exists {
		e := el.Value.(*centry)
		was := e.neg
		e.val, e.neg, e.exp = val, neg, exp
		sh.lru.MoveToFront(el)
		c.negs.Add(negCount(neg) - negCount(was))
		sh.mu.Unlock()
		return
	}
	// Reap up to two expired entries from the LRU back, so an entry no one
	// reads again stops holding memory at its shard's next insert instead
	// of when LRU pressure reaches it.
	var reaped, reapedNegs int64
	for ; reaped < 2; reaped++ {
		back := sh.lru.Back()
		if back == nil || now < back.Value.(*centry).exp {
			break
		}
		e := sh.lru.Remove(back).(*centry)
		delete(sh.items, e.key)
		reapedNegs += negCount(e.neg)
	}
	evicted, evictedNeg := false, false
	if sh.lru.Len() >= sh.cap {
		back := sh.lru.Back()
		if back != nil {
			sh.lru.Remove(back)
			e := back.Value.(*centry)
			delete(sh.items, e.key)
			evicted, evictedNeg = true, e.neg
		}
	}
	sh.items[key] = sh.lru.PushFront(&centry{key: key, val: val, neg: neg, exp: exp})
	// Counted before the shard is unlocked: a drop that finds the entry must
	// not have read the count without it.
	c.negs.Add(negCount(neg))
	sh.mu.Unlock()
	if reaped > 0 {
		c.removed(reaped, reapedNegs)
	}
	if evicted {
		c.negs.Add(-negCount(evictedNeg))
		inc(c.evictions)
	} else {
		c.len.Add(1)
	}
}

func negCount(neg bool) int64 {
	if neg {
		return 1
	}
	return 0
}

// Invalidate drops every cached entry. System.Drain calls it so the
// "drain, then query" contract of tests and batch loads observes fresh
// state regardless of TTLs.
func (c *Cache) Invalidate() {
	// First, so that a store read begun before this call caches nothing
	// (put).
	c.gen.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.len.Add(int64(-sh.lru.Len()))
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			if el.Value.(*centry).neg {
				c.negs.Add(-1)
			}
		}
		sh.items = make(map[string]*list.Element)
		sh.lru.Init()
		sh.mu.Unlock()
	}
}

// Len reports the number of live entries (including not-yet-reaped
// expired ones).
func (c *Cache) Len() int { return int(c.len.Load()) }

// inc bumps a counter when instrumented.
func inc(c *obsv.Counter) {
	if c != nil {
		c.Inc()
	}
}
