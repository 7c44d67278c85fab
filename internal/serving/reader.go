package serving

import (
	"time"

	"tencentrec/internal/obsv"
)

// Store is the read side of the backing store. tdstore.Client and
// topology's MemState both satisfy it.
type Store interface {
	// BatchGet returns the values for keys in one round trip;
	// found[i] reports whether keys[i] exists.
	BatchGet(keys []string) (values [][]byte, found []bool, err error)
}

// DecodeFunc turns a raw stored value into its decoded, cacheable form.
// The decoded value is shared across cache hits and must be treated as
// immutable by every caller.
type DecodeFunc func([]byte) (any, error)

// Config shapes a Reader.
type Config struct {
	// CacheTTL bounds positive-entry staleness. 0 uses DefaultCacheTTL;
	// negative disables the hot-result cache.
	CacheTTL time.Duration
	// NegativeTTL bounds how long a known-absent key is served as a
	// miss without consulting the store. 0 uses DefaultNegativeTTL.
	NegativeTTL time.Duration
}

// Reader is the serving tier's read path: a decoded-result cache in
// front of the store, plus a result cache for fully assembled query
// answers (a recommend slate for one user is rebuilt at most once per
// TTL, however hot the user). Safe for concurrent use.
type Reader struct {
	store   Store
	cache   *Cache // decoded store values; nil when disabled
	results *Cache // assembled query results; nil when disabled

	// Instrument wires these; nil-safe.
	batches   *obsv.Counter
	batchKeys *obsv.Counter
}

// NewReader builds the serving read tier over store.
func NewReader(store Store, cfg Config) *Reader {
	r := &Reader{store: store}
	if cfg.CacheTTL >= 0 {
		r.cache = NewCache(cfg.CacheTTL, cfg.NegativeTTL, DefaultMaxEntries)
		r.results = NewCache(cfg.CacheTTL, cfg.NegativeTTL, DefaultMaxEntries)
	}
	return r
}

// Instrument binds the tier's counters to the registry:
// serving_cache_{hits,misses,negative_hits,negative_dropped,evictions}_total
// and serving_cache_entries for the cache; serving_batches_total /
// serving_batch_keys_total (store reads of missed keys).
// Call it at setup, before the reader serves traffic.
func (r *Reader) Instrument(reg *obsv.Registry) {
	if r.cache != nil {
		r.cache.hits = reg.Counter("serving_cache_hits_total", "Serving-tier cache hits on decoded results.")
		r.cache.misses = reg.Counter("serving_cache_misses_total", "Serving-tier cache misses.")
		r.cache.negHits = reg.Counter("serving_cache_negative_hits_total", "Serving-tier hits on negative (known-absent) entries.")
		r.cache.negDropped = reg.Counter("serving_cache_negative_dropped_total", "Serving-tier negative entries dropped because their key was written.")
		r.cache.evictions = reg.Counter("serving_cache_evictions_total", "Serving-tier cache LRU evictions.")
		// The result cache shares the decoded-value cache's counters: one
		// family reports the tier's total hit economy.
		r.results.hits, r.results.misses = r.cache.hits, r.cache.misses
		r.results.negHits, r.results.evictions = r.cache.negHits, r.cache.evictions
		reg.GaugeFunc("serving_cache_entries", "Live serving-tier cache entries.", func() int64 {
			return int64(r.cache.Len() + r.results.Len())
		})
	}
	r.batches = reg.Counter("serving_batches_total", "Store batches read for cache misses.")
	r.batchKeys = reg.Counter("serving_batch_keys_total", "Keys carried by the store batches of cache misses.")
}

// Get returns the decoded value for key, serving from the cache when
// live and otherwise reading the store and caching the decoded result
// (negatively when the key does not exist). ok is false when the key
// does not exist.
func (r *Reader) Get(key string, decode DecodeFunc) (any, bool, error) {
	if r.cache != nil {
		if v, neg, ok := r.cache.Get(key); ok {
			return v, !neg, nil
		}
	}
	vals, found, err := r.fetch([]string{key}, decode)
	if err != nil {
		return nil, false, err
	}
	return vals[0], found[0], nil
}

// GetBatch is Get over several keys: cache hits are served directly and
// only the misses go to the store, in one batch. found[i] is false for
// keys that do not exist.
func (r *Reader) GetBatch(keys []string, decode DecodeFunc) ([]any, []bool, error) {
	if r.cache == nil {
		return r.fetch(keys, decode)
	}
	out := make([]any, len(keys))
	found := make([]bool, len(keys))
	var missKeys []string
	var missPos []int
	for i, k := range keys {
		if v, neg, ok := r.cache.Get(k); ok {
			out[i], found[i] = v, !neg
			continue
		}
		missKeys = append(missKeys, k)
		missPos = append(missPos, i)
	}
	if len(missKeys) == 0 {
		return out, found, nil
	}
	vals, ok, err := r.fetch(missKeys, decode)
	if err != nil {
		return nil, nil, err
	}
	for j, pos := range missPos {
		out[pos], found[pos] = vals[j], ok[j]
	}
	return out, found, nil
}

// fetch reads keys from the store in one BatchGet on the caller's
// goroutine, decodes what it finds and caches the outcome of every key,
// negatively for the absent ones. A store error caches nothing. Neither
// does a read that an Invalidate overtook: the generation is loaded
// before the store is.
func (r *Reader) fetch(keys []string, decode DecodeFunc) ([]any, []bool, error) {
	var gen uint64
	if r.cache != nil {
		gen = r.cache.gen.Load()
	}
	inc(r.batches)
	if r.batchKeys != nil {
		r.batchKeys.Add(int64(len(keys)))
	}
	raw, found, err := r.store.BatchGet(keys)
	if err != nil {
		return nil, nil, err
	}
	out := make([]any, len(keys))
	for i, k := range keys {
		if !found[i] {
			if r.cache != nil {
				r.cache.put(k, nil, true, gen)
			}
			continue
		}
		if out[i], err = decode(raw[i]); err != nil {
			return nil, nil, err
		}
		if r.cache != nil {
			r.cache.put(k, out[i], false, gen)
		}
	}
	return out, found, nil
}

// GetResult returns a cached assembled query result. Keys are chosen by
// the caller (query type + arguments); the returned value is shared
// across hits and must be treated as immutable. gen is the cache
// generation loaded before the lookup: the caller that assembles the
// missed result hands it to PutResult.
func (r *Reader) GetResult(key string) (v any, gen uint64, ok bool) {
	if r.results == nil {
		return nil, 0, false
	}
	gen = r.results.gen.Load()
	v, neg, ok := r.results.Get(key)
	return v, gen, ok && !neg
}

// PutResult caches an assembled query result for the cache TTL, unless
// an Invalidate came after GetResult returned gen: a result assembled
// from reads that began before it must not be cached.
func (r *Reader) PutResult(key string, v any, gen uint64) {
	if r.results != nil {
		r.results.put(key, v, false, gen)
	}
}

// DropNegative tells the tier that keys have just been written to the
// store: a cached "absent" for any of them is dropped, so a negative answer
// is never older than the write that made it wrong (but for a miss whose
// store read raced the write, which lasts NegativeTTL). Cached values are
// not touched; they age out by CacheTTL as before. The writer calls it after
// the write has returned.
func (r *Reader) DropNegative(keys ...string) {
	if r.cache != nil {
		r.cache.dropNegative(keys)
	}
}

// Invalidate drops every cached entry, and a store read in flight caches
// nothing. System.Drain calls it so post-drain queries observe fresh
// state.
func (r *Reader) Invalidate() {
	if r.cache != nil {
		r.cache.Invalidate()
	}
	if r.results != nil {
		r.results.Invalidate()
	}
}
