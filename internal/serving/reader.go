package serving

import (
	"time"

	"tencentrec/internal/obsv"
)

// DecodeFunc turns a raw stored value into its decoded, cacheable form.
// The decoded value is shared across cache hits and must be treated as
// immutable by every caller.
type DecodeFunc func([]byte) (any, error)

// Config shapes a Reader.
type Config struct {
	// CacheTTL bounds positive-entry staleness. 0 uses DefaultCacheTTL;
	// negative disables the hot-result cache (coalescing and hedging
	// stay on).
	CacheTTL time.Duration
	// NegativeTTL bounds how long a known-absent key is served as a
	// miss without consulting the store. 0 uses DefaultNegativeTTL.
	NegativeTTL time.Duration
	// MaxEntries bounds the cache size in decoded entries, evicting LRU
	// beyond it. 0 uses DefaultMaxEntries; negative disables the cache.
	MaxEntries int
	// Replica enables hedged reads against replica copies; nil
	// disables hedging.
	Replica ReplicaStore
	// HedgeDelay fixes how long the primary read may run before a
	// replica read is hedged against it. 0 derives the delay per batch
	// from HedgeDelayFn (typically the store's observed read p95);
	// negative disables hedging.
	HedgeDelay time.Duration
	// HedgeDelayFn is the live hedge-delay source consulted when
	// HedgeDelay is 0, clamped to at least MinHedgeDelay. Returning 0
	// falls back to DefaultHedgeDelay.
	HedgeDelayFn func() time.Duration
	// HedgeMaxPct caps hedged batches as a percentage of dispatched
	// batches. 0 uses DefaultHedgeMaxPct.
	HedgeMaxPct int
}

// Reader is the serving tier's read path: a decoded-result cache in
// front of a coalescing, hedging store fetcher, plus a result cache for
// fully assembled query answers (a recommend slate for one user is
// rebuilt at most once per TTL, however hot the user). Safe for
// concurrent use.
type Reader struct {
	cache   *Cache // decoded store values; nil when disabled
	results *Cache // assembled query results; nil when disabled
	co      *Coalescer
}

// NewReader builds the serving read tier over store.
func NewReader(store Store, cfg Config) *Reader {
	replica := cfg.Replica
	if cfg.HedgeDelay < 0 {
		replica = nil
	}
	r := &Reader{
		co: NewCoalescer(store, replica, max(cfg.HedgeDelay, 0), cfg.HedgeDelayFn, cfg.HedgeMaxPct),
	}
	if cfg.CacheTTL >= 0 && cfg.MaxEntries >= 0 {
		r.cache = NewCache(cfg.CacheTTL, cfg.NegativeTTL, cfg.MaxEntries)
		r.results = NewCache(cfg.CacheTTL, cfg.NegativeTTL, cfg.MaxEntries)
	}
	return r
}

// Instrument binds the tier's counters to the registry:
// serving_cache_{hits,misses,negative_hits,negative_dropped,evictions}_total
// and serving_cache_entries for the cache; serving_coalesced_total
// (requests that joined an in-flight fetch), serving_batches_total /
// serving_batch_keys_total (store dispatches) and
// serving_hedges_total / serving_hedge_wins_total for the fetcher.
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
	r.co.coalesced = reg.Counter("serving_coalesced_total", "Read requests that joined an in-flight fetch for the same key.")
	r.co.batches = reg.Counter("serving_batches_total", "Coalesced store batches dispatched.")
	r.co.batchKeys = reg.Counter("serving_batch_keys_total", "Keys carried by coalesced store batches.")
	r.co.hedges = reg.Counter("serving_hedges_total", "Store batches hedged against a replica.")
	r.co.hedgeWins = reg.Counter("serving_hedge_wins_total", "Hedged batches where the replica answered first.")
	r.co.queueDepth = reg.Gauge("serving_coalesce_queue_depth", "Keys queued for the next coalesced batch.")
}

// Get returns the decoded value for key, serving from the cache when
// live and otherwise fetching through the coalescer and caching the
// decoded result (negatively when the key does not exist). ok is false
// when the key does not exist.
func (r *Reader) Get(key string, decode DecodeFunc) (any, bool, error) {
	if r.cache != nil {
		if v, neg, ok := r.cache.Get(key); ok {
			if neg {
				return nil, false, nil
			}
			return v, true, nil
		}
	}
	raw, ok, err := r.co.Get(key)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		if r.cache != nil {
			r.cache.PutNegative(key)
		}
		return nil, false, nil
	}
	v, err := decode(raw)
	if err != nil {
		return nil, false, err
	}
	if r.cache != nil {
		r.cache.Put(key, v)
	}
	return v, true, nil
}

// GetBatch is Get over several keys: cache hits are served directly and
// only the misses go to the coalescer, in one batch. found[i] is false
// for keys that do not exist.
func (r *Reader) GetBatch(keys []string, decode DecodeFunc) ([]any, []bool, error) {
	out := make([]any, len(keys))
	found := make([]bool, len(keys))
	var missKeys []string
	var missPos []int
	for i, k := range keys {
		if r.cache != nil {
			if v, neg, ok := r.cache.Get(k); ok {
				if !neg {
					out[i], found[i] = v, true
				}
				continue
			}
		}
		missKeys = append(missKeys, k)
		missPos = append(missPos, i)
	}
	if len(missKeys) == 0 {
		return out, found, nil
	}
	vals, ok, err := r.co.GetBatch(missKeys)
	if err != nil {
		return nil, nil, err
	}
	for j, pos := range missPos {
		if !ok[j] {
			if r.cache != nil {
				r.cache.PutNegative(missKeys[j])
			}
			continue
		}
		v, err := decode(vals[j])
		if err != nil {
			return nil, nil, err
		}
		if r.cache != nil {
			r.cache.Put(missKeys[j], v)
		}
		out[pos], found[pos] = v, true
	}
	return out, found, nil
}

// GetResult returns a cached assembled query result. Keys are chosen by
// the caller (query type + arguments); the returned value is shared
// across hits and must be treated as immutable.
func (r *Reader) GetResult(key string) (any, bool) {
	if r.results == nil {
		return nil, false
	}
	v, neg, ok := r.results.Get(key)
	if !ok || neg {
		return nil, false
	}
	return v, true
}

// PutResult caches an assembled query result for the cache TTL.
func (r *Reader) PutResult(key string, v any) {
	if r.results != nil {
		r.results.Put(key, v)
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

// Invalidate drops every cached entry; in-flight fetches are
// unaffected. System.Drain calls it so post-drain queries observe
// fresh state.
func (r *Reader) Invalidate() {
	if r.cache != nil {
		r.cache.Invalidate()
	}
	if r.results != nil {
		r.results.Invalidate()
	}
}
