// Package cache implements the fine-grained cache of §5.2, used to absorb
// temporal burst events.
//
// Bursts have locality: "the small portion of the items attract the large
// portion of users' attention", so caching "in the granularity of data
// instance, i.e., a key-value pair" turns most of a burst's store reads
// into memory hits. Consistency follows the paper's protocol: stream
// grouping already sends all tuples with one key to one worker, so each
// worker's cache is authoritative for its keys; writers update the cache
// first and write through to the store, and reads prefer the cache.
package cache

import (
	"container/list"
	"strings"
)

// Store is the backing read interface (a TDStore client in production).
type Store interface {
	Get(key string) ([]byte, bool, error)
}

// BatchStore is the optional batched read contract of a backing store.
// When the store provides it, cache misses of a multi-key lookup are
// fetched in one round trip instead of key-by-key.
type BatchStore interface {
	BatchGet(keys []string) ([][]byte, []bool, error)
}

// Cache is an LRU key-value cache in front of a Store.
// It is not safe for concurrent use; each pipeline task owns one,
// which is exactly the single-writer discipline §5.2 relies on.
//
// Value ownership (the one-copy-per-read contract): a hit returns the
// cache-owned slice with no copy — the read path's single copy is the
// one the backing store makes when a miss fills the entry. The owning
// task may therefore mutate a returned slice in place only if it is the
// key's single writer and immediately Puts the key back (keeping the
// entry's slice header current); values must never escape to another
// goroutine or outlive the next write to the key. Put stores the
// caller's slice as-is and never copies; an entry keeps its own copy of
// its key.
type Cache struct {
	store    Store
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recent
}

type entry struct {
	key   string
	value []byte
}

// New returns a cache of the given capacity over store.
// A nil store serves misses as absent.
func New(store Store, capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Cache{
		store:    store,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// Get returns the value for key, from cache or the backing store.
// Store values are cached on read.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry).value, true, nil
	}
	if c.store == nil {
		return nil, false, nil
	}
	v, ok, err := c.store.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	c.insert(key, v)
	return v, true, nil
}

// GetBatch returns the values for keys, serving hits from the cache and
// fetching every miss from the backing store in one batched read when
// the store supports BatchStore. Fetched values are cached, exactly as
// single-key Get does.
func (c *Cache) GetBatch(keys []string) ([][]byte, []bool, error) {
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	var missKeys []string
	var missPos []int
	for i, k := range keys {
		if el, ok := c.entries[k]; ok {
			c.order.MoveToFront(el)
			vals[i], found[i] = el.Value.(*entry).value, true
			continue
		}
		if c.store != nil {
			missKeys = append(missKeys, k)
			missPos = append(missPos, i)
		}
	}
	if len(missKeys) == 0 {
		return vals, found, nil
	}
	if bs, ok := c.store.(BatchStore); ok {
		mv, mf, err := bs.BatchGet(missKeys)
		if err != nil {
			return nil, nil, err
		}
		for j, i := range missPos {
			if mf[j] {
				vals[i], found[i] = mv[j], true
				c.insert(missKeys[j], mv[j])
			}
		}
		return vals, found, nil
	}
	for j, i := range missPos {
		v, ok, err := c.store.Get(missKeys[j])
		if err != nil {
			return nil, nil, err
		}
		if ok {
			vals[i], found[i] = v, true
			c.insert(missKeys[j], v)
		}
	}
	return vals, found, nil
}

// Put records a write: the paper's updating workers "first read the data
// from the cache and then update it both in cache and in TDStore"; the
// store write-through is the caller's next step (often via a combiner).
func (c *Cache) Put(key string, value []byte) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.insert(key, value)
}

// insert enters a key the cache does not hold. It keeps a copy of the key:
// a caller's key may be a slice of a larger string that it built many keys
// into, which an entry must not keep alive.
func (c *Cache) insert(key string, value []byte) {
	key = strings.Clone(key)
	el := c.order.PushFront(&entry{key: key, value: value})
	c.entries[key] = el
	if c.order.Len() > c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.order.Len() }
