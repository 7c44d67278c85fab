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
//
// A cache is indexed by the key's keyhash, which its caller carries (a
// pipeline task's interner computed it): an open-addressing table of
// entry numbers, with no pointer in it, over a slab of entries that holds
// the LRU order in the entries themselves. An entry keeps the key's bytes
// in a buffer of its own, which the entry reuses when eviction hands it to
// another key, so a miss that fills and evicts allocates nothing once the
// slab is full.
package cache

import "tencentrec/internal/keyhash"

// Store is the backing read interface (a TDStore client in production).
type Store interface {
	Get(key string) ([]byte, bool, error)
}

// HashedStore is a Store that reads by the key's keyhash as well, singly
// and in batches. New wraps a Store that is not one: it then reads by key.
type HashedStore interface {
	Store
	GetHashed(key string, h uint64) ([]byte, bool, error)
	BatchGetHashed(keys []string, hs []uint64) ([][]byte, []bool, error)
}

// Cache is an LRU key-value cache of an entry count in front of a Store.
// It is not safe for concurrent use; each pipeline task owns one,
// which is exactly the single-writer discipline §5.2 relies on.
//
// Value ownership (the one-copy-per-read contract): a hit returns the
// cache-owned slice with no copy — the read path's single copy is the
// one the backing store makes when a miss fills the entry. The owning
// task may therefore mutate a returned slice in place only if it is the
// key's single writer and immediately puts the key back (keeping the
// entry's slice header current); values must never escape to another
// goroutine or outlive the next write to the key. A put stores the
// caller's slice as-is and never copies; an entry keeps its own copy of
// its key's bytes.
type Cache struct {
	store    HashedStore
	capacity int
	// ents is the slab; an entry's number is its index. head and tail are
	// the most and least recently used entries, -1 when empty.
	ents       []entry
	head, tail int32
	// idx finds an entry by keyhash; it has at least twice the entries'
	// slots.
	idx keyhash.Index
	// miss* are GetBatchHashed's scratch, reused across calls.
	missKeys []string
	missHs   []uint64
	missPos  []int
}

type entry struct {
	h          uint64
	key        []byte
	value      []byte
	prev, next int32 // LRU neighbours toward head and tail, -1 at the ends
}

// New returns a cache of the given capacity over store.
// A nil store serves misses as absent.
func New(store Store, capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1024
	}
	c := &Cache{capacity: capacity, head: -1, tail: -1}
	switch s := store.(type) {
	case nil:
	case HashedStore:
		c.store = s
	default:
		c.store = keyedStore{s}
	}
	return c
}

// keyedStore reads a Store that knows no keyhash by key.
type keyedStore struct{ Store }

func (s keyedStore) GetHashed(key string, _ uint64) ([]byte, bool, error) { return s.Get(key) }

func (s keyedStore) BatchGetHashed(keys []string, _ []uint64) ([][]byte, []bool, error) {
	vals, found := make([][]byte, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		v, ok, err := s.Get(k)
		if err != nil {
			return nil, nil, err
		}
		vals[i], found[i] = v, ok
	}
	return vals, found, nil
}

// Get returns the value for key, from cache or the backing store.
func (c *Cache) Get(key string) ([]byte, bool, error) {
	return c.GetHashed(key, keyhash.String(key))
}

// GetHashed returns the value for key, whose keyhash is h, from cache or
// the backing store. Store values are cached on read.
func (c *Cache) GetHashed(key string, h uint64) ([]byte, bool, error) {
	if e := c.find(key, h); e >= 0 {
		c.touch(e)
		return c.ents[e].value, true, nil
	}
	if c.store == nil {
		return nil, false, nil
	}
	v, ok, err := c.store.GetHashed(key, h)
	if err != nil || !ok {
		return nil, false, err
	}
	c.PutHashed(key, h, v)
	return v, true, nil
}

// GetBatchHashed returns the values for keys, hs[i] the keyhash of
// keys[i], serving hits from the cache and fetching every miss from the
// backing store in one batched read. Fetched values are cached, exactly as
// GetHashed does. A key given twice that the cache does not hold is read
// for each time it is given and enters the cache once.
func (c *Cache) GetBatchHashed(keys []string, hs []uint64) ([][]byte, []bool, error) {
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	mk, mh, mp := c.missKeys[:0], c.missHs[:0], c.missPos[:0]
	for i, k := range keys {
		if e := c.find(k, hs[i]); e >= 0 {
			c.touch(e)
			vals[i], found[i] = c.ents[e].value, true
		} else if c.store != nil {
			mk, mh, mp = append(mk, k), append(mh, hs[i]), append(mp, i)
		}
	}
	c.missKeys, c.missHs, c.missPos = mk, mh, mp
	defer clear(c.missKeys) // drop key references; capacity stays
	if len(mk) == 0 {
		return vals, found, nil
	}
	mv, mf, err := c.store.BatchGetHashed(mk, mh)
	if err != nil {
		return nil, nil, err
	}
	for j, i := range mp {
		if mf[j] {
			vals[i], found[i] = mv[j], true
			c.PutHashed(mk[j], mh[j], mv[j])
		}
	}
	return vals, found, nil
}

// PutHashed records a write of key, whose keyhash is h: the paper's
// updating workers "first read the data from the cache and then update it
// both in cache and in TDStore"; the store write-through is the caller's
// next step (often via a combiner). A key the cache does not hold enters
// it, and a full cache gives the least recently used entry to it.
func (c *Cache) PutHashed(key string, h uint64, value []byte) {
	if e := c.find(key, h); e >= 0 {
		c.ents[e].value = value
		c.touch(e)
		return
	}
	var e int32
	if len(c.ents) < c.capacity {
		e = int32(len(c.ents))
		c.ents = append(c.ents, entry{prev: -1, next: -1})
		if 2*len(c.ents) > c.idx.Len() {
			c.idx.Resize(2 * c.idx.Len())
			for i := range c.ents[:e] {
				c.idx.Add(c.ents[i].h, uint32(i))
			}
		}
	} else {
		e = c.tail
		c.unlink(e)
		c.idx.Remove(c.ents[e].h, uint32(e), c.hashOf)
	}
	en := &c.ents[e]
	en.h, en.key, en.value = h, append(en.key[:0], key...), value
	c.idx.Add(h, uint32(e))
	c.pushFront(e)
}

func (c *Cache) hashOf(e uint32) uint64 { return c.ents[e].h }

// find returns the number of key's entry, or -1.
func (c *Cache) find(key string, h uint64) int32 {
	if c.idx.Len() == 0 {
		return -1
	}
	for i := c.idx.Home(h); c.idx.At(i) != 0; i = c.idx.Next(i) {
		e := int32(c.idx.At(i) - 1)
		if en := &c.ents[e]; en.h == h && string(en.key) == key {
			return e
		}
	}
	return -1
}

// touch makes entry e the most recently used.
func (c *Cache) touch(e int32) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

func (c *Cache) unlink(e int32) {
	en := &c.ents[e]
	if en.prev >= 0 {
		c.ents[en.prev].next = en.next
	} else {
		c.head = en.next
	}
	if en.next >= 0 {
		c.ents[en.next].prev = en.prev
	} else {
		c.tail = en.prev
	}
	en.prev, en.next = -1, -1
}

func (c *Cache) pushFront(e int32) {
	en := &c.ents[e]
	en.prev, en.next = -1, c.head
	if c.head >= 0 {
		c.ents[c.head].prev = e
	} else {
		c.tail = e
	}
	c.head = e
}
