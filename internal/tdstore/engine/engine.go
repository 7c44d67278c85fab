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
//   - LDB: a log-structured engine of a memtable and sorted string
//     tables (package ldb);
//   - FDB: its role — a durable store on disk — is covered by LDB.
package engine

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math/bits"
	"strings"
	"sync"
)

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// KV is one stored version of a key, in one immutable string: the key's
// length as a uvarint, the key, then the value. A write builds it once,
// and every engine that stores the version keeps that same string, so the
// host's copy and its slaves' share one allocation. A KV that MakeKV
// built is never empty, so "" can stand for no version.
type KV string

// MakeKV returns the KV of value under key, built in one allocation. It
// keeps neither argument.
func MakeKV(key string, value []byte) KV {
	var b strings.Builder
	b.Grow(uvarintLen(uint64(len(key))) + len(key) + len(value))
	var hdr [binary.MaxVarintLen64]byte
	b.Write(hdr[:binary.PutUvarint(hdr[:], uint64(len(key)))])
	b.WriteString(key)
	b.Write(value)
	return KV(b.String())
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Split returns kv's key and value, both sharing kv's bytes; "" splits
// into two empty strings.
func (kv KV) Split() (key, value string) {
	if kv == "" {
		return "", ""
	}
	var n uint
	i := 0
	for shift := uint(0); kv[i] >= 0x80; i, shift = i+1, shift+7 {
		n |= uint(kv[i]&0x7f) << shift
	}
	n |= uint(kv[i]) << (7 * uint(i))
	s := string(kv[i+1:])
	return s[:n], s[n:]
}

// Key returns kv's key, sharing kv's bytes.
func (kv KV) Key() string {
	k, _ := kv.Split()
	return k
}

// Value returns kv's value, sharing kv's bytes.
func (kv KV) Value() string {
	_, v := kv.Split()
	return v
}

// Engine is the key-value contract a TDStore data server requires of a
// storage engine. Implementations must be safe for concurrent use.
type Engine interface {
	// Get returns the value stored under key, and whether it exists. The
	// slice is the caller's: the engine keeps no reference to it.
	Get(key string) ([]byte, bool, error)
	// PutKV stores kv's value under kv's key, replacing any previous
	// version. The engine keeps kv itself.
	PutKV(kv KV) error
	// PutBatch stores every KV of kvs, in order, so a key given twice
	// keeps its later value. It keeps each KV as PutKV does; the slice
	// stays the caller's. A durable engine makes the batch one log append.
	PutBatch(kvs []KV) error
	// Delete removes key. Deleting an absent key is not an error.
	Delete(key string) error
	// Len returns the number of live keys.
	Len() (int, error)
	// Range calls fn with every live version until fn returns false. fn
	// may keep the KVs it is given.
	Range(fn func(kv KV) bool) error
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
	Fsyncs           int64 // fsync calls, one per table published
	MemtableFlushes  int64 // memtable → SSTable flushes
	Compactions      int64 // completed table merges
	CompactionBytes  int64 // bytes read + written by compactions
	BlockCacheHits   int64
	BlockCacheMisses int64
	RecoveryNanos    int64 // wall time of the last Open (its tables' indexes built)
	Tables           int64 // current SSTable count
}

// StatsReporter is implemented by engines that publish Stats.
type StatsReporter interface {
	EngineStats() Stats
}

// stripeBits sets the number of lock stripes in an MDB engine, sized
// past the data server's worker fan-out so concurrent readers and writers
// of different keys rarely share a lock.
const (
	stripeBits  = 4
	stripeCount = 1 << stripeBits
)

// hashSeed seeds the MDB table hash. The hash is the table's own: the
// route's FNV-1a picks the engine a key lives in, so its bits are the
// same for every key of one engine and could spread nothing inside it.
var hashSeed = maphash.MakeSeed()

// hashKey returns the table hash of key. Its top stripeBits bits pick the
// stripe, the 7 bits below them the slot's tag, and the rest the key's
// home slot, so the three do not depend on each other.
func hashKey(key string) uint64 { return maphash.String(hashSeed, key) }

func stripeOf(h uint64) uint64 { return h >> (64 - stripeBits) }

// tagOf returns the tag a slot holding a key of hash h carries: 7 bits of
// the hash with the top bit set, so that 0 marks an empty slot.
func tagOf(h uint64) uint8 { return uint8(h>>(64-stripeBits-7)) | 0x80 }

// Memory is the MDB engine: a lock-striped in-memory hash table. Keys
// spread over stripeCount stripes, each guarded by its own RWMutex, so
// concurrent access to different keys does not serialize on one
// engine-wide lock. A stripe's table keeps the KV it was given; Get
// copies the value out. The zero value is an empty engine.
type Memory struct {
	stripes [stripeCount]stripe
}

type stripe struct {
	mu     sync.RWMutex
	closed bool
	table
	// Pad the 24-byte RWMutex, the flag and the 56-byte table to two
	// full cache lines so neighboring stripe locks do not false-share.
	_ [40]byte
}

// minSlots is the size of a table's first allocation.
const minSlots = 7

// table is an open-addressing hash table with linear probing. A slot is
// the 16-byte header of the KV it holds and a 1-byte tag, against a
// 40-byte map[string][]byte slot. A table has 2^k-1 slots: Go puts an
// 8-byte header ahead of an object that holds pointers and is larger
// than 512 bytes, so 2^k 16-byte slots would take the next size class,
// up to a fifth more. It grows to twice its size when an insert would
// take it past 3/4 full, so a table is between 3/8 and 3/4 full once it
// has grown, and it always keeps an empty slot to end a probe. A delete
// shifts the entries behind it back, so no tombstone is left.
type table struct {
	kvs  []KV    // "" in an empty slot
	tags []uint8 // 0 in an empty slot, else tagOf the key's hash
	n    int     // occupied slots
}

// home returns the slot a key of hash h starts its probe at: the hash
// bits that stripe and tag leave, scaled to the table's size.
func (t *table) home(h uint64) int {
	hi, _ := bits.Mul64(h<<(stripeBits+7), uint64(len(t.kvs)))
	return int(hi)
}

// next returns the slot after i, wrapping at the end.
func (t *table) next(i int) int {
	if i++; i == len(t.kvs) {
		return 0
	}
	return i
}

// find returns the slot holding key and true, or the empty slot that
// ends key's probe and false. The table must have slots.
func (t *table) find(key string, h uint64) (int, bool) {
	tag := tagOf(h)
	for i := t.home(h); ; i = t.next(i) {
		switch t.tags[i] {
		case 0:
			return i, false
		case tag:
			if t.kvs[i].Key() == key {
				return i, true
			}
		}
	}
}

// get returns the KV stored under key, or "".
func (t *table) get(key string, h uint64) KV {
	if t.n == 0 {
		return ""
	}
	if i, ok := t.find(key, h); ok {
		return t.kvs[i]
	}
	return ""
}

// put stores kv, whose key is key with hash h.
func (t *table) put(kv KV, key string, h uint64) {
	if len(t.kvs) == 0 {
		t.resize(minSlots)
	}
	i, ok := t.find(key, h)
	if !ok {
		if 4*(t.n+1) > 3*len(t.kvs) {
			t.resize(2*len(t.kvs) + 1)
			i, _ = t.find(key, h)
		}
		t.tags[i] = tagOf(h)
		t.n++
	}
	t.kvs[i] = kv
}

// resize moves every entry into a new table of size slots.
func (t *table) resize(size int) {
	old := t.kvs
	t.kvs, t.tags = make([]KV, size), make([]uint8, size)
	for _, kv := range old {
		if kv == "" {
			continue
		}
		h := hashKey(kv.Key())
		i := t.home(h)
		for t.tags[i] != 0 {
			i = t.next(i)
		}
		t.kvs[i], t.tags[i] = kv, tagOf(h)
	}
}

// delete removes key, if present. Each entry of the probe run behind the
// freed slot moves back into it when the slot lies between the entry's
// home and where it sits, and the slot it left is the next to fill; the
// run ends at an empty slot.
func (t *table) delete(key string, h uint64) {
	if t.n == 0 {
		return
	}
	i, ok := t.find(key, h)
	if !ok {
		return
	}
	hole := i
	for j := t.next(hole); t.tags[j] != 0; j = t.next(j) {
		if t.behind(t.home(hashKey(t.kvs[j].Key())), j) >= t.behind(hole, j) {
			t.kvs[hole], t.tags[hole] = t.kvs[j], t.tags[j]
			hole = j
		}
	}
	t.kvs[hole], t.tags[hole] = "", 0
	t.n--
}

// behind returns how many slots i lies behind j, wrapping.
func (t *table) behind(i, j int) int {
	if d := j - i; d >= 0 {
		return d
	}
	return j - i + len(t.kvs)
}

// NewMemory returns an MDB engine.
func NewMemory() *Memory { return &Memory{} }

// Get implements Engine. The value is copied out after the stripe's lock
// is released: a KV never changes.
func (m *Memory) Get(key string) ([]byte, bool, error) {
	h := hashKey(key)
	s := &m.stripes[stripeOf(h)]
	s.mu.RLock()
	kv, closed := s.get(key, h), s.closed
	s.mu.RUnlock()
	if closed {
		return nil, false, ErrClosed
	}
	if kv == "" {
		return nil, false, nil
	}
	return []byte(kv.Value()), true, nil
}

// PutKV implements Engine: the entry is kv itself, not a copy.
func (m *Memory) PutKV(kv KV) error {
	key := kv.Key()
	h := hashKey(key)
	s := &m.stripes[stripeOf(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.put(kv, key, h)
	return nil
}

// PutBatch implements Engine: one PutKV per KV.
func (m *Memory) PutBatch(kvs []KV) error {
	for _, kv := range kvs {
		if err := m.PutKV(kv); err != nil {
			return err
		}
	}
	return nil
}

// Delete implements Engine.
func (m *Memory) Delete(key string) error {
	h := hashKey(key)
	s := &m.stripes[stripeOf(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.delete(key, h)
	return nil
}

// Len implements Engine. Stripes are counted one at a time, so Len is a
// consistent total only when no writes are concurrent — the same
// guarantee the engine contract has always given for aggregate reads.
func (m *Memory) Len() (int, error) {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		closed := s.closed
		n += s.n
		s.mu.RUnlock()
		if closed {
			return 0, ErrClosed
		}
	}
	return n, nil
}

// Range implements Engine. Each stripe is visited under its own read
// lock; like Len, the iteration is a point-in-time view per stripe.
func (m *Memory) Range(fn func(kv KV) bool) error {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return ErrClosed
		}
		for _, kv := range s.kvs {
			if kv != "" && !fn(kv) {
				s.mu.RUnlock()
				return nil
			}
		}
		s.mu.RUnlock()
	}
	return nil
}

// Close implements Engine.
func (m *Memory) Close() error {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		s.closed, s.table = true, table{}
		s.mu.Unlock()
	}
	return nil
}
