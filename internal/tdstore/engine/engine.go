// Package engine defines the storage engine interface of TDStore and
// provides the Memory DataBase (MDB) engine.
//
// The paper's TDStore data servers support multiple storage engines —
// "Memory DataBase (MDB), Level DataBase (LDB), Redis DataBase (RDB), and
// File DataBase (FDB)" (§3.3). This reproduction implements:
//
//   - MDB: a lock-striped in-memory hash table (this package);
//   - RDB: Redis is external software, so its role — an in-memory store
//     with key expiry — is covered by MDB's TTL mode (NewMemoryTTL);
//   - LDB: a log-structured engine with a write-ahead log, memtable and
//     sorted string tables (package ldb);
//   - FDB: a file-backed engine with hashed bucket logs (package fdb).
package engine

import (
	"sync"
	"time"
)

// Engine is the key-value contract a TDStore data server requires of a
// storage engine. Implementations must be safe for concurrent use.
type Engine interface {
	// Get returns the value stored under key, and whether it exists. The
	// slice is the caller's: the engine keeps no reference to it.
	Get(key string) ([]byte, bool, error)
	// Put stores value under key, replacing any previous value. The engine
	// takes the slice it is given: the caller hands it over and must not
	// modify it afterwards, and the engine never writes to it, so one
	// slice may be handed to several engines.
	Put(key string, value []byte) error
	// PutBatch stores values[i] under keys[i] for every i, in order, so a
	// key given twice keeps its later value; the slices have one length.
	// It takes each value as Put does; the two slices themselves stay the
	// caller's. A durable engine makes the batch one log append.
	PutBatch(keys []string, values [][]byte) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key string) error
	// Len returns the number of live keys.
	Len() (int, error)
	// Range calls fn for every live pair until fn returns false.
	// The value slice must not be retained or mutated by fn.
	Range(fn func(key string, value []byte) bool) error
	// Close releases engine resources. The engine is unusable afterwards.
	Close() error
}

// Checkpointer is implemented by engines that can publish a consistent
// point-in-time snapshot of their state into a directory. The snapshot
// must be self-contained: opening an engine of the same kind on the
// directory must yield exactly the state at the moment of the call, and
// the files must stay valid even as the source engine keeps mutating
// (hard links or copies, never shared mutable files).
type Checkpointer interface {
	Checkpoint(dir string) error
}

// Stats is a point-in-time snapshot of a durable engine's internal
// counters, exposed for observability. All counters are cumulative since
// the engine was opened except Tables, which is a level gauge, and
// RecoveryNanos, which is the one-time cost of the last Open.
type Stats struct {
	WALBytes           int64 // bytes appended to the write-ahead log
	WALFsyncs          int64 // fsync calls (WAL group/record syncs + table syncs)
	MemtableFlushes    int64 // memtable → SSTable flushes
	Compactions        int64 // completed table merges
	CompactionBytes    int64 // bytes read + written by compactions
	BlockCacheHits     int64
	BlockCacheMisses   int64
	RecoveryNanos      int64 // wall time of the last Open (replay included)
	ReplayedWALRecords int64 // records replayed from the WAL at Open
	TornWALTails       int64 // torn tails truncated at Open
	Tables             int64 // current SSTable count
}

// StatsReporter is implemented by engines that publish Stats.
type StatsReporter interface {
	EngineStats() Stats
}

// memShardCount is the number of lock stripes in an MDB engine. A power
// of two so shard selection is a mask, sized past the data server's
// worker fan-out so concurrent readers and writers of different keys
// rarely share a lock.
const memShardCount = 16

// Memory is the MDB engine: a lock-striped in-memory map with optional
// TTL expiry. Keys spread over memShardCount shards, each guarded by its
// own RWMutex, so concurrent access to different keys does not serialize
// on one engine-wide lock. An entry is the slice Put was given and a
// deadline; Get copies out. The zero value is not usable; construct with
// NewMemory or NewMemoryTTL.
type Memory struct {
	shards [memShardCount]memShard
	ttl    time.Duration
	clock  func() time.Time
}

type memShard struct {
	mu   sync.RWMutex
	data map[string]memEntry
	// Pad the 24-byte RWMutex + 8-byte map header to a full cache line
	// so neighboring shard locks do not false-share.
	_ [32]byte
}

// memEntry is 32 bytes and holds one pointer, the value's: a deadline in
// nanoseconds rather than a time.Time keeps a map slot at 48 bytes.
type memEntry struct {
	value    []byte
	deadline int64 // the clock's UnixNano after which the entry is gone; 0 means never
}

// expired reports whether e is past its deadline at now (UnixNano).
func (e memEntry) expired(now int64) bool {
	return e.deadline != 0 && now > e.deadline
}

// now is the engine clock in UnixNano.
func (m *Memory) now() int64 {
	return m.clock().UnixNano()
}

// NewMemory returns an MDB engine without expiry.
func NewMemory() *Memory {
	return NewMemoryTTL(0, nil)
}

// NewMemoryTTL returns an MDB engine whose entries expire ttl after each
// write, standing in for the paper's Redis (RDB) engine. A zero ttl means
// no expiry. clock may be nil to use time.Now; tests inject a fake clock.
func NewMemoryTTL(ttl time.Duration, clock func() time.Time) *Memory {
	if clock == nil {
		clock = time.Now
	}
	m := &Memory{ttl: ttl, clock: clock}
	for i := range m.shards {
		m.shards[i].data = make(map[string]memEntry)
	}
	return m
}

// shardIndex selects a key's stripe with an inlined allocation-free
// FNV-1a, the same idiom the stream layer's grouping hash uses.
func shardIndex(key string) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h & (memShardCount - 1)
}

func (m *Memory) shard(key string) *memShard {
	return &m.shards[shardIndex(key)]
}

// Get implements Engine.
func (m *Memory) Get(key string) ([]byte, bool, error) {
	sh := m.shard(key)
	sh.mu.RLock()
	e, ok := sh.data[key]
	sh.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	if e.deadline != 0 && e.expired(m.now()) {
		sh.mu.Lock()
		// Recheck under the write lock: the entry may have been
		// refreshed since the read lock was dropped.
		if e2, ok2 := sh.data[key]; ok2 && e2.expired(m.now()) {
			delete(sh.data, key)
		}
		sh.mu.Unlock()
		return nil, false, nil
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, true, nil
}

// Put implements Engine: the entry is value itself, not a copy.
func (m *Memory) Put(key string, value []byte) error {
	e := memEntry{value: value}
	if m.ttl > 0 {
		e.deadline = m.clock().Add(m.ttl).UnixNano()
	}
	sh := m.shard(key)
	sh.mu.Lock()
	sh.data[key] = e
	sh.mu.Unlock()
	return nil
}

// PutBatch implements Engine: one Put per key.
func (m *Memory) PutBatch(keys []string, values [][]byte) error {
	for i, k := range keys {
		m.Put(k, values[i])
	}
	return nil
}

// Delete implements Engine.
func (m *Memory) Delete(key string) error {
	sh := m.shard(key)
	sh.mu.Lock()
	delete(sh.data, key)
	sh.mu.Unlock()
	return nil
}

// Len implements Engine. Expired entries still resident count as absent.
// Shards are counted one at a time, so Len is a consistent total only
// when no writes are concurrent — the same guarantee the engine contract
// has always given for aggregate reads.
func (m *Memory) Len() (int, error) {
	n := 0
	if m.ttl <= 0 {
		for i := range m.shards {
			sh := &m.shards[i]
			sh.mu.RLock()
			n += len(sh.data)
			sh.mu.RUnlock()
		}
		return n, nil
	}
	now := m.now()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, e := range sh.data {
			if !e.expired(now) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n, nil
}

// Range implements Engine. Each shard is visited under its own read
// lock; like Len, the iteration is a point-in-time view per shard.
func (m *Memory) Range(fn func(key string, value []byte) bool) error {
	now := m.now()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for k, e := range sh.data {
			if e.expired(now) {
				continue
			}
			if !fn(k, e.value) {
				sh.mu.RUnlock()
				return nil
			}
		}
		sh.mu.RUnlock()
	}
	return nil
}

// Close implements Engine.
func (m *Memory) Close() error {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.data = nil
		sh.mu.Unlock()
	}
	return nil
}
