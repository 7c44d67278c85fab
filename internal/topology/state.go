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
	"tencentrec/internal/keyhash"
	"tencentrec/internal/window"
)

// State is the status-data store contract bolts need: a strongly-typed
// subset of the TDStore client, including the batched entry points the
// flush paths depend on. All implementations must be safe for concurrent
// use (bolts on different tasks share one client).
//
// The pipeline's state path reads and writes by key and keyhash: a task's
// interner hashes a key once, and the store routes and indexes by that
// hash. The serving tier's reads (Get, BatchGet) go by key.
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
	// BatchGet returns the values for keys in one round trip;
	// found[i] reports whether keys[i] exists.
	BatchGet(keys []string) (values [][]byte, found []bool, err error)
	// GetHashed is Get of a key whose keyhash is h.
	GetHashed(key string, h uint64) ([]byte, bool, error)
	// PutHashed stores value under key, whose keyhash is h.
	PutHashed(key string, h uint64, value []byte) error
	// BatchGetHashed is BatchGet with hs[i] the keyhash of keys[i].
	BatchGetHashed(keys []string, hs []uint64) (values [][]byte, found []bool, err error)
	// BatchPutHashed stores values[i] under keys[i], whose keyhash is
	// hs[i], in one round trip.
	BatchPutHashed(keys []string, hs []uint64, values [][]byte) error
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

// shardIndex returns the shard of a key whose keyhash is h: its route
// half, as a TDStore client places keys on instances.
func shardIndex(h uint64) uint32 { return keyhash.Route(h) % memShards }

// Get implements State.
func (s *MemState) Get(key string) ([]byte, bool, error) {
	return s.GetHashed(key, keyhash.String(key))
}

// GetHashed implements State.
func (s *MemState) GetHashed(key string, h uint64) ([]byte, bool, error) {
	s.gets.Add(1)
	sh := &s.shards[shardIndex(h)]
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

// Put stores value under key.
func (s *MemState) Put(key string, value []byte) error {
	return s.PutHashed(key, keyhash.String(key), value)
}

// PutHashed implements State.
func (s *MemState) PutHashed(key string, h uint64, value []byte) error {
	sh := &s.shards[shardIndex(h)]
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
	return s.BatchGetHashed(keys, keyhash.Strings(keys))
}

// BatchGetHashed implements State as BatchGet does.
func (s *MemState) BatchGetHashed(keys []string, hs []uint64) ([][]byte, []bool, error) {
	s.gets.Add(int64(len(keys)))
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	var byShard [memShards][]int
	for i, h := range hs {
		si := shardIndex(h)
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

// BatchPutHashed implements State, one lock acquisition per touched shard.
func (s *MemState) BatchPutHashed(keys []string, hs []uint64, values [][]byte) error {
	var byShard [memShards][]int
	for i, h := range hs {
		si := shardIndex(h)
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

// Get reads an owned key, whose keyhash is h, through the cache.
func (ts *taskState) Get(key string, h uint64) ([]byte, bool, error) {
	if ts.cache == nil {
		return ts.store.GetHashed(key, h)
	}
	return ts.cache.GetHashed(key, h)
}

// getForeign reads a key owned by another bolt's tasks, bypassing the
// cache: only a key's single writer may cache it (§5.2's consistency
// argument), so foreign reads always go to the store.
func (ts *taskState) getForeign(key string, h uint64) ([]byte, bool, error) {
	return ts.store.GetHashed(key, h)
}

// Put writes an owned key through the cache to the store.
func (ts *taskState) Put(key string, h uint64, value []byte) error {
	if ts.cache != nil {
		ts.cache.PutHashed(key, h, value)
	}
	return ts.store.PutHashed(key, h, value)
}

// putBatch write-throughs several owned keys at once: cache first, then
// one store BatchPutHashed.
func (ts *taskState) putBatch(keys []string, hs []uint64, values [][]byte) error {
	if ts.cache != nil {
		for i := range keys {
			ts.cache.PutHashed(keys[i], hs[i], values[i])
		}
	}
	return ts.store.BatchPutHashed(keys, hs, values)
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
func (ts *taskState) addCounter(key string, h uint64, w int, session int64, delta float64) (float64, error) {
	raw, ok, err := ts.Get(key, h)
	if err != nil {
		return 0, err
	}
	raw, sum, err := addToCounter(raw, ok, w, session, delta)
	if err != nil {
		return 0, err
	}
	return sum, ts.Put(key, h, raw)
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
// per-key entries holds the positions itself and never looks a key up
// (PairCountBolt); the keyed methods the other bolts call are a lookup by
// keyhash in front of the positional ones.
// A stateBatch belongs to one task and is not safe for concurrent use.
type stateBatch struct {
	ts *taskState
	// pos finds the entry in ents of a key staged or written through the
	// keyed methods by its keyhash; it has at least twice the npos entries'
	// slots. Reads of other keys fall back to single-key access.
	pos  keyhash.Index
	npos int
	ents []stagedKey
	// order lists the dirty entries in first-write order.
	order []int
	// load* are load's BatchGetHashed argument scratch and flush* the
	// BatchPutHashed's, reused across intervals (State must not retain
	// them).
	loadKeys  []string
	loadHs    []uint64
	loadIdx   []int
	flushKeys []string
	flushHs   []uint64
	flushVals [][]byte
}

// stagedKey is one key's staged state.
type stagedKey struct {
	key   string
	h     uint64
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
	ts.pool = &stateBatch{ts: ts}
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

// reset clears the staged view while keeping the slices' capacity.
func (sb *stateBatch) reset() {
	sb.pos.Clear()
	sb.npos = 0
	clear(sb.ents) // drop key and value references
	sb.ents = sb.ents[:0]
	sb.order = sb.order[:0]
}

// stageAt appends an (absent, clean) entry for key, whose keyhash is h, to
// be read by the next load, and returns its position. The key is not
// entered in pos: the caller keeps the position, and must not stage one
// key twice in a batch.
func (sb *stateBatch) stageAt(key string, h uint64, foreign bool) int {
	sb.ents = append(sb.ents, stagedKey{key: key, h: h, foreign: foreign, pending: true})
	return len(sb.ents) - 1
}

// stage is stageAt by key: a key the batch already knows keeps its entry.
func (sb *stateBatch) stage(key string, h uint64, foreign bool) int {
	if i, ok := sb.lookup(key, h); ok {
		return i
	}
	if sb.npos++; 2*sb.npos > sb.pos.Len() {
		// Only keyed entries are in pos: enter the old table's again.
		old := sb.pos
		sb.pos.Resize(2 * old.Len())
		for j := range uint64(old.Len()) {
			if e := old.At(j); e != 0 {
				sb.pos.Add(sb.ents[e-1].h, e-1)
			}
		}
	}
	i := sb.stageAt(key, h, foreign)
	sb.pos.Add(h, uint32(i))
	return i
}

// lookup returns the position of a key staged through stage.
func (sb *stateBatch) lookup(key string, h uint64) (int, bool) {
	if sb.npos == 0 {
		return 0, false
	}
	for i := sb.pos.Home(h); sb.pos.At(i) != 0; i = sb.pos.Next(i) {
		if e := sb.pos.At(i) - 1; sb.ents[e].h == h && sb.ents[e].key == key {
			return int(e), true
		}
	}
	return 0, false
}

// load reads every pending entry in bulk: owned keys through the cache
// (one batched store read for the misses), foreign keys straight from the
// store; with the cache disabled one store read covers both.
func (sb *stateBatch) load() error {
	if c := sb.ts.cache; c != nil {
		if err := sb.loadFrom(c.GetBatchHashed, true); err != nil {
			return err
		}
	}
	return sb.loadFrom(sb.ts.store.BatchGetHashed, false)
}

// loadFrom fills pending entries from one batched read: the owned ones
// only, or whatever is still pending.
func (sb *stateBatch) loadFrom(get func([]string, []uint64) ([][]byte, []bool, error), ownedOnly bool) error {
	keys, hs, idx := sb.loadKeys[:0], sb.loadHs[:0], sb.loadIdx[:0]
	for i := range sb.ents {
		if e := &sb.ents[i]; e.pending && !(ownedOnly && e.foreign) {
			keys, hs, idx = append(keys, e.key), append(hs, e.h), append(idx, i)
		}
	}
	sb.loadKeys, sb.loadHs, sb.loadIdx = keys, hs, idx
	if len(keys) == 0 {
		return nil
	}
	vals, found, err := get(keys, hs)
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
func (sb *stateBatch) get(key string, h uint64) ([]byte, bool, error) {
	if i, ok := sb.lookup(key, h); ok {
		val, found := sb.valAt(i)
		return val, found, nil
	}
	return sb.ts.Get(key, h)
}

// getForeign reads a foreign key from the staged view, falling back to
// the store-direct single-key path.
func (sb *stateBatch) getForeign(key string, h uint64) ([]byte, bool, error) {
	if i, ok := sb.lookup(key, h); ok {
		val, found := sb.valAt(i)
		return val, found, nil
	}
	return sb.ts.getForeign(key, h)
}

// put stages a write of an owned key.
func (sb *stateBatch) put(key string, h uint64, value []byte) {
	sb.putAt(sb.stage(key, h, false), value)
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
		sb.ts.cache.PutHashed(e.key, e.h, value)
	}
}

// flush issues one BatchPut covering every staged write, in first-write
// order. The batch can keep being used afterwards; subsequent writes
// start a new dirty set.
func (sb *stateBatch) flush() error {
	if len(sb.order) == 0 {
		return nil
	}
	keys, hs, vals := sb.flushKeys[:0], sb.flushHs[:0], sb.flushVals[:0]
	for _, i := range sb.order {
		e := &sb.ents[i]
		e.dirty = false
		keys, hs, vals = append(keys, e.key), append(hs, e.h), append(vals, e.val)
	}
	sb.flushKeys, sb.flushHs, sb.flushVals = keys, hs, vals
	sb.order = sb.order[:0]
	err := sb.ts.store.BatchPutHashed(keys, hs, vals)
	clear(sb.flushVals) // drop value references; capacity stays
	return err
}

// addCounter applies a delta to an owned counter by key; one outside the
// staged set is read through the task's single-key path and staged.
func (sb *stateBatch) addCounter(key string, h uint64, w int, session int64, delta float64) (float64, error) {
	i, ok := sb.lookup(key, h)
	if !ok {
		raw, found, err := sb.ts.Get(key, h)
		if err != nil {
			return 0, err
		}
		i = sb.stage(key, h, false)
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
func (sb *stateBatch) readCounterSum(key string, h uint64, session int64) (float64, error) {
	if i, ok := sb.lookup(key, h); ok {
		return sb.counterSumAt(i, session)
	}
	raw, ok, err := sb.ts.getForeign(key, h)
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
