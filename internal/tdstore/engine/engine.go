// Package engine defines the storage engine interface of TDStore and
// provides the Memory DataBase (MDB) engine.
//
// The paper's TDStore data servers support multiple storage engines —
// "Memory DataBase (MDB), Level DataBase (LDB), Redis DataBase (RDB), and
// File DataBase (FDB)" (§3.3). This reproduction implements:
//
//   - MDB: a lock-striped in-memory hash table (this package);
//   - RDB: Redis is external software, so its role — an in-memory store
//     — is covered by MDB; nothing the system stores needs key expiry;
//   - LDB: a log-structured engine with a write-ahead log, memtable and
//     sorted string tables (package ldb);
//   - FDB: its role — a durable store on disk — is covered by LDB.
package engine

import (
	"errors"
	"sync"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

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

// Memory is the MDB engine: a lock-striped in-memory map. Keys spread
// over memShardCount shards, each guarded by its own RWMutex, so
// concurrent access to different keys does not serialize on one
// engine-wide lock. A shard maps a key to the slice Put was given; Get
// copies out. The zero value is not usable; construct with NewMemory.
type Memory struct {
	shards [memShardCount]memShard
}

type memShard struct {
	mu sync.RWMutex
	// data is nil once the engine is closed.
	data map[string][]byte
	// Pad the 24-byte RWMutex + 8-byte map header to a full cache line
	// so neighboring shard locks do not false-share.
	_ [32]byte
}

// NewMemory returns an MDB engine.
func NewMemory() *Memory {
	m := &Memory{}
	for i := range m.shards {
		m.shards[i].data = make(map[string][]byte)
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
	v, ok := sh.data[key]
	closed := sh.data == nil
	sh.mu.RUnlock()
	if closed {
		return nil, false, ErrClosed
	}
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// Put implements Engine: the entry is value itself, not a copy.
func (m *Memory) Put(key string, value []byte) error {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.data == nil {
		return ErrClosed
	}
	sh.data[key] = value
	return nil
}

// PutBatch implements Engine: one Put per key.
func (m *Memory) PutBatch(keys []string, values [][]byte) error {
	for i, k := range keys {
		if err := m.Put(k, values[i]); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements Engine.
func (m *Memory) Delete(key string) error {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.data == nil {
		return ErrClosed
	}
	delete(sh.data, key)
	return nil
}

// Len implements Engine. Shards are counted one at a time, so Len is a
// consistent total only when no writes are concurrent — the same
// guarantee the engine contract has always given for aggregate reads.
func (m *Memory) Len() (int, error) {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		closed := sh.data == nil
		n += len(sh.data)
		sh.mu.RUnlock()
		if closed {
			return 0, ErrClosed
		}
	}
	return n, nil
}

// Range implements Engine. Each shard is visited under its own read
// lock; like Len, the iteration is a point-in-time view per shard.
func (m *Memory) Range(fn func(key string, value []byte) bool) error {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		if sh.data == nil {
			sh.mu.RUnlock()
			return ErrClosed
		}
		for k, v := range sh.data {
			if !fn(k, v) {
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
