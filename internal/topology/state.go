// Package topology implements TencentRec's topology framework (§5): the
// spouts and bolts of Fig. 6, wired onto the stream engine, with all
// status data held in TDStore so every computation unit is state-free and
// crash-restartable (§3.3).
//
// The processing divides into the paper's three layers:
//
//   - preprocessing: an application Spout feeding a Pretreatment bolt
//     that parses, filters and forwards action tuples;
//   - algorithm: statistics units (UserHistory, ItemCount, PairCount,
//     ItemInfo, CtrStore) decoupled from algorithm computation units
//     (CFBolt — split here into PairCount+ResultStorage steps — CBBolt,
//     DBBolt, ARBolt, CtrBolt);
//   - storage: FilterBolt applying application-specific rules and
//     ResultStorage persisting results for the query-serving engine.
//
// The §5 optimizations are built in: every stateful bolt fronts TDStore
// with a fine-grained LRU cache (§5.2), counter updates flow through
// interval-flushed combiners (§5.3) driven by tick tuples, and the
// demographic statistics use the multi-hash regrouping of §5.4 (hash by
// user first, then re-hash the rating deltas by group id).
//
// State access is batched: each bolt accumulates the key set one tuple
// or one flush interval touches and issues one BatchGet up front and one
// BatchPut at the end (via stateBatch), so a tick that merges hundreds
// of combiner deltas costs a handful of store round-trips instead of
// hundreds.
package topology

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"tencentrec/internal/cache"
	"tencentrec/internal/window"
)

// State is the status-data store contract bolts need: a strongly-typed
// subset of the TDStore client, including the batched entry points the
// flush paths depend on. All implementations must be safe for concurrent
// use (bolts on different tasks share one client).
//
// Value ownership: Get and BatchGet return slices the caller owns — the
// store must not retain or mutate them after returning (every engine
// copies out of its internal storage exactly once). Symmetrically, Put
// and BatchPut must not retain the key or value slices after they
// return: callers reuse those buffers across calls (pooled flush
// machinery, in-place codec patches), so a store that needs the bytes
// beyond the call must copy them.
type State interface {
	// Get returns the value stored under key.
	Get(key string) ([]byte, bool, error)
	// Put stores value under key.
	Put(key string, value []byte) error
	// BatchGet returns the values for keys in one round trip;
	// found[i] reports whether keys[i] exists.
	BatchGet(keys []string) (values [][]byte, found []bool, err error)
	// BatchPut stores values[i] under keys[i] in one round trip.
	BatchPut(keys []string, values [][]byte) error
}

// memShards spreads MemState over independent locks, approximating the
// parallel data servers a real TDStore cluster provides.
const memShards = 32

type memShard struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// MemState is an in-memory State for tests and single-process runs,
// sharded so concurrent tasks do not serialize on one lock.
type MemState struct {
	shards [memShards]memShard

	gets, puts atomic.Int64
}

// NewMemState returns an empty in-memory state.
func NewMemState() *MemState {
	s := &MemState{}
	for i := range s.shards {
		s.shards[i].m = make(map[string][]byte)
	}
	return s
}

func shardIndex(key string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime
	}
	return h % memShards
}

func (s *MemState) shard(key string) *memShard {
	return &s.shards[shardIndex(key)]
}

// Get implements State.
func (s *MemState) Get(key string) ([]byte, bool, error) {
	s.gets.Add(1)
	sh := s.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Put implements State.
func (s *MemState) Put(key string, value []byte) error {
	sh := s.shard(key)
	sh.mu.Lock()
	sh.set(key, value)
	sh.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// set stores a copy of value under key. The shard keeps keys of its own: a
// caller's key may be a slice of a larger string (PairCountBolt builds an
// interval's pc: keys into one), which the map must not keep alive. So a new
// key is cloned, and a value that keeps its length is rewritten in place:
// assigning to a key the map holds would swap its copy for the caller's.
func (sh *memShard) set(key string, value []byte) {
	old, ok := sh.m[key]
	if ok && len(old) == len(value) {
		copy(old, value)
		return
	}
	sh.m[strings.Clone(key)] = copyInto(old, value)
}

// copyInto copies value into dst's storage when it fits, else into a
// fresh slice with growth headroom. Safe only because Get/BatchGet hand
// out copies, so the stored slice is exclusively owned by the shard map;
// the headroom amortizes re-allocation for values (user histories,
// result lists) that grow by a few bytes per update.
func copyInto(dst, value []byte) []byte {
	if cap(dst) >= len(value) {
		dst = dst[:len(value)]
		copy(dst, value)
		return dst
	}
	cp := make([]byte, len(value), len(value)+len(value)/4+16)
	copy(cp, value)
	return cp
}

// BatchGet implements State: keys are grouped by shard so each shard's
// lock is taken once per batch. Ops accounting stays per key, so the
// cache/combiner ablations keep measuring keys touched.
func (s *MemState) BatchGet(keys []string) ([][]byte, []bool, error) {
	s.gets.Add(int64(len(keys)))
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	var byShard [memShards][]int
	for i, k := range keys {
		si := shardIndex(k)
		byShard[si] = append(byShard[si], i)
	}
	for si := range byShard {
		idxs := byShard[si]
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.RLock()
		for _, i := range idxs {
			if v, ok := sh.m[keys[i]]; ok {
				out := make([]byte, len(v))
				copy(out, v)
				vals[i], found[i] = out, true
			}
		}
		sh.mu.RUnlock()
	}
	return vals, found, nil
}

// BatchPut implements State, one lock acquisition per touched shard.
func (s *MemState) BatchPut(keys []string, values [][]byte) error {
	var byShard [memShards][]int
	for i, k := range keys {
		si := shardIndex(k)
		byShard[si] = append(byShard[si], i)
	}
	for si := range byShard {
		idxs := byShard[si]
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, i := range idxs {
			sh.set(keys[i], values[i])
		}
		sh.mu.Unlock()
	}
	s.puts.Add(int64(len(keys)))
	return nil
}

// Ops returns the number of Get and Put calls served, for the cache and
// combiner ablations (store-operation reduction is the metric §5.2/§5.3
// argue about).
func (s *MemState) Ops() (gets, puts int64) {
	return s.gets.Load(), s.puts.Load()
}

// Len returns the number of stored keys.
func (s *MemState) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// taskState is the per-task view of the store: an LRU cache in front of
// State with write-through, per §5.2. Each bolt task owns one; fields
// grouping guarantees the task is the only writer of its keys, which is
// what makes the cache consistent.
//
// Value ownership on this layer differs from State: a cached Get
// returns the cache-owned slice with no copy (the read path's single
// copy happens at the store boundary, on the miss that filled the
// entry). Because the task is the key's only writer, it patches that
// slice in place — that is what the statecodec and window edits do — and
// immediately re-Puts the key so the cache entry's length and the
// write-through stay coherent. Values must never escape to another
// goroutine.
type taskState struct {
	store State
	cache *cache.Cache
	// pool is the task's reusable stateBatch (see batch). Lazily built;
	// nil until the first flush that wants one.
	pool *stateBatch
}

func newTaskState(store State, cacheSize int) *taskState {
	if cacheSize <= 0 {
		// Cache disabled: read/write the store directly.
		return &taskState{store: store}
	}
	return &taskState{store: store, cache: cache.New(store, cacheSize)}
}

func (ts *taskState) Get(key string) ([]byte, bool, error) {
	if ts.cache == nil {
		return ts.store.Get(key)
	}
	return ts.cache.Get(key)
}

// getForeign reads a key owned by another bolt's tasks, bypassing the
// cache: only a key's single writer may cache it (§5.2's consistency
// argument), so foreign reads always go to the store.
func (ts *taskState) getForeign(key string) ([]byte, bool, error) {
	return ts.store.Get(key)
}

func (ts *taskState) Put(key string, value []byte) error {
	if ts.cache != nil {
		ts.cache.Put(key, value)
	}
	return ts.store.Put(key, value)
}

// putBatch write-throughs several owned keys at once: cache first, then
// one store BatchPut.
func (ts *taskState) putBatch(keys []string, values [][]byte) error {
	if ts.cache != nil {
		for i := range keys {
			ts.cache.Put(keys[i], values[i])
		}
	}
	return ts.store.BatchPut(keys, values)
}

// addToCounter applies a delta to an encoded windowed counter in place
// and returns the frame with the new windowed sum; an absent counter
// starts as the encoding of an empty one. The frame is the caller's own
// (cached or staged) slice: the task is the key's single writer, and it
// re-puts the key so cache, staged view and store stay coherent.
func addToCounter(raw []byte, found bool, w int, session int64, delta float64) ([]byte, float64, error) {
	if !found {
		raw, _ = window.NewCounter(w).MarshalBinary() // cannot fail
	}
	sum, ok := window.AddEncoded(raw, session, delta)
	if !ok {
		return nil, 0, fmt.Errorf("topology: bad counter encoding (%d bytes) for session %d", len(raw), session)
	}
	return raw, sum, nil
}

// addCounter applies a delta to the stored counter and returns the new
// windowed sum.
func (ts *taskState) addCounter(key string, w int, session int64, delta float64) (float64, error) {
	raw, ok, err := ts.Get(key)
	if err != nil {
		return 0, err
	}
	raw, sum, err := addToCounter(raw, ok, w, session, delta)
	if err != nil {
		return 0, err
	}
	return sum, ts.Put(key, raw)
}

// stateBatch stages one flush interval's (or one tuple's) state access:
// the key set is staged and loaded in bulk — owned keys through the cache,
// foreign keys store-direct — reads and writes then run against the
// staged view, and flush issues a single BatchPut for everything
// written. Read-your-writes holds within the batch, so applying merged
// combiner deltas in order is byte-identical to the key-by-key path.
//
// Every read and write is implemented once, by entry position (stageAt,
// keyAt, valAt, putAt, addCounterAt, counterSumAt). A caller that keeps its own
// per-key entries holds the positions itself and never hashes a key
// (PairCountBolt); the string-keyed methods the other bolts call are a pos
// lookup in front of the positional ones.
// A stateBatch belongs to one task and is not safe for concurrent use.
type stateBatch struct {
	ts *taskState
	// pos maps a key staged or written through the string-keyed methods to
	// its entry in ents; reads of other keys fall back to single-key
	// access. One map of positions (not one map per attribute) keeps a
	// string-keyed read or write at a single map probe.
	pos  map[string]int
	ents []stagedKey
	// order lists the dirty entries in first-write order.
	order []int
	// loadKeys/loadIdx are load's BatchGet argument scratch and
	// flushKeys/flushVals the BatchPut's, reused across intervals (State
	// must not retain them).
	loadKeys  []string
	loadIdx   []int
	flushKeys []string
	flushVals [][]byte
}

// stagedKey is one key's staged state.
type stagedKey struct {
	key   string
	val   []byte
	found bool
	// foreign marks a key that must never enter the task cache.
	foreign bool
	dirty   bool
	// pending marks an entry staged for the next load and not yet read.
	pending bool
}

// batch returns the task's pooled stateBatch, reset for a new interval.
// A task executes one tuple or one tick at a time, so a single reusable
// instance suffices; pooling keeps a flush from reallocating the staging
// map per tick (or per tuple on the unbatched bolts). The pool follows the
// load down as well as up: a slab that one burst's flush grew, and the
// interval just ended used under a quarter of, is dropped rather than
// kept for the life of the task (a map's buckets never shrink).
func (ts *taskState) batch() *stateBatch {
	if sb := ts.pool; sb != nil && (cap(sb.ents) <= 1024 || len(sb.ents) >= cap(sb.ents)/4) {
		sb.reset()
		return sb
	}
	ts.pool = &stateBatch{ts: ts, pos: make(map[string]int)}
	return ts.pool
}

// idle is batch's rule for an interval that staged nothing, and so used
// none of the pool: a slab over 1,024 entries is dropped. A flush that
// returns early calls it, or a burst's pool would outlive the burst.
func (ts *taskState) idle() {
	if sb := ts.pool; sb != nil && cap(sb.ents) > 1024 {
		ts.pool = nil
	}
}

// reset clears the staged view while keeping the map's buckets and the
// slices' capacity.
func (sb *stateBatch) reset() {
	clear(sb.pos)
	clear(sb.ents) // drop key and value references
	sb.ents = sb.ents[:0]
	sb.order = sb.order[:0]
}

// stageAt appends an (absent, clean) entry for key, to be read by the next
// load, and returns its position. The key is not entered in pos: the
// caller keeps the position, and must not stage one key twice in a batch.
func (sb *stateBatch) stageAt(key string, foreign bool) int {
	sb.ents = append(sb.ents, stagedKey{key: key, foreign: foreign, pending: true})
	return len(sb.ents) - 1
}

// stage is stageAt by key: a key the batch already knows keeps its entry.
func (sb *stateBatch) stage(key string, foreign bool) int {
	i, ok := sb.pos[key]
	if !ok {
		i = sb.stageAt(key, foreign)
		sb.pos[key] = i
	}
	return i
}

// prefetch stages the given owned and foreign keys and loads them.
func (sb *stateBatch) prefetch(owned, foreign []string) error {
	for _, k := range owned {
		sb.stage(k, false)
	}
	for _, k := range foreign {
		sb.stage(k, true)
	}
	return sb.load()
}

// load reads every pending entry in bulk: owned keys through the cache
// (one batched store read for the misses), foreign keys straight from the
// store; with the cache disabled one store read covers both.
func (sb *stateBatch) load() error {
	if c := sb.ts.cache; c != nil {
		if err := sb.loadFrom(c.GetBatch, true); err != nil {
			return err
		}
	}
	return sb.loadFrom(sb.ts.store.BatchGet, false)
}

// loadFrom fills pending entries from one batched read: the owned ones
// only, or whatever is still pending.
func (sb *stateBatch) loadFrom(get func([]string) ([][]byte, []bool, error), ownedOnly bool) error {
	keys, idx := sb.loadKeys[:0], sb.loadIdx[:0]
	for i := range sb.ents {
		if e := &sb.ents[i]; e.pending && !(ownedOnly && e.foreign) {
			keys, idx = append(keys, e.key), append(idx, i)
		}
	}
	sb.loadKeys, sb.loadIdx = keys, idx
	if len(keys) == 0 {
		return nil
	}
	vals, found, err := get(keys)
	clear(sb.loadKeys) // drop key references; capacity stays
	if err != nil {
		return err
	}
	for j, i := range idx {
		e := &sb.ents[i]
		e.val, e.found, e.pending = vals[j], found[j], false
	}
	return nil
}

// keyAt returns the key staged at position i.
func (sb *stateBatch) keyAt(i int) string { return sb.ents[i].key }

// valAt returns the staged value at position i and whether the key exists.
func (sb *stateBatch) valAt(i int) ([]byte, bool) {
	return sb.ents[i].val, sb.ents[i].found
}

// get reads an owned key from the staged view, falling back to the
// task's cached single-key path for keys outside the staged set.
func (sb *stateBatch) get(key string) ([]byte, bool, error) {
	if i, ok := sb.pos[key]; ok {
		val, found := sb.valAt(i)
		return val, found, nil
	}
	return sb.ts.Get(key)
}

// getForeign reads a foreign key from the staged view, falling back to
// the store-direct single-key path.
func (sb *stateBatch) getForeign(key string) ([]byte, bool, error) {
	if i, ok := sb.pos[key]; ok {
		val, found := sb.valAt(i)
		return val, found, nil
	}
	return sb.ts.getForeign(key)
}

// put stages a write of an owned key.
func (sb *stateBatch) put(key string, value []byte) {
	sb.putAt(sb.stage(key, false), value)
}

// putAt stages a write at position i. The task cache is updated
// immediately (the same write-through ordering as taskState.Put); the
// store write happens at flush.
func (sb *stateBatch) putAt(i int, value []byte) {
	e := &sb.ents[i]
	e.val, e.found, e.pending = value, true, false
	if !e.dirty {
		e.dirty = true
		sb.order = append(sb.order, i)
	}
	if sb.ts.cache != nil && !e.foreign {
		sb.ts.cache.Put(e.key, value)
	}
}

// flush issues one BatchPut covering every staged write, in first-write
// order. The batch can keep being used afterwards; subsequent writes
// start a new dirty set.
func (sb *stateBatch) flush() error {
	if len(sb.order) == 0 {
		return nil
	}
	keys := sb.flushKeys[:0]
	vals := sb.flushVals[:0]
	for _, i := range sb.order {
		e := &sb.ents[i]
		e.dirty = false
		keys = append(keys, e.key)
		vals = append(vals, e.val)
	}
	sb.flushKeys, sb.flushVals = keys, vals
	sb.order = sb.order[:0]
	err := sb.ts.store.BatchPut(keys, vals)
	clear(sb.flushVals) // drop value references; capacity stays
	return err
}

// addCounter applies a delta to an owned counter by key; one outside the
// staged set is read through the task's single-key path and staged.
func (sb *stateBatch) addCounter(key string, w int, session int64, delta float64) (float64, error) {
	i, ok := sb.pos[key]
	if !ok {
		raw, found, err := sb.ts.Get(key)
		if err != nil {
			return 0, err
		}
		i = sb.stage(key, false)
		e := &sb.ents[i]
		e.val, e.found, e.pending = raw, found, false
	}
	return sb.addCounterAt(i, w, session, delta)
}

// addCounterAt applies a delta to the staged counter at position i and
// returns the new windowed sum; the re-put keeps the staged view, cache and
// dirty set coherent. A zero delta changes nothing, so it is a read: the
// counter is neither created nor marked dirty, and the flush does not write
// it.
func (sb *stateBatch) addCounterAt(i int, w int, session int64, delta float64) (float64, error) {
	if delta == 0 {
		return sb.counterSumAt(i, session)
	}
	raw, sum, err := addToCounter(sb.ents[i].val, sb.ents[i].found, w, session, delta)
	if err != nil {
		return 0, err
	}
	sb.putAt(i, raw)
	return sum, nil
}

// readCounterSum returns a foreign counter's windowed sum from the batch
// view (the counter belongs to another bolt, whose cache is the
// authoritative copy).
func (sb *stateBatch) readCounterSum(key string, session int64) (float64, error) {
	if i, ok := sb.pos[key]; ok {
		return sb.counterSumAt(i, session)
	}
	raw, ok, err := sb.ts.getForeign(key)
	if err != nil {
		return 0, err
	}
	return counterSum(raw, ok, session)
}

// counterSumAt returns the windowed sum of the staged counter at position i.
func (sb *stateBatch) counterSumAt(i int, session int64) (float64, error) {
	return counterSum(sb.ents[i].val, sb.ents[i].found, session)
}

// counterSum sums an encoded windowed counter in place, without decoding.
// An absent counter sums to zero.
func counterSum(raw []byte, found bool, session int64) (float64, error) {
	if !found {
		return 0, nil
	}
	sum, ok := window.SumEncoded(raw, session)
	if !ok {
		return 0, fmt.Errorf("topology: bad counter encoding (%d bytes) for session %d", len(raw), session)
	}
	return sum, nil
}
