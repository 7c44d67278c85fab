package cache

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"tencentrec/internal/keyhash"
)

// mapStore is a Store backed by a map, counting reads.
type mapStore struct {
	m     map[string][]byte
	reads int
}

func (s *mapStore) Get(key string) ([]byte, bool, error) {
	s.reads++
	v, ok := s.m[key]
	return v, ok, nil
}

func TestReadThroughAndHit(t *testing.T) {
	st := &mapStore{m: map[string][]byte{"k": []byte("v")}}
	c := New(st, 10)
	v, ok, err := c.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	c.Get("k")
	c.Get("k")
	if st.reads != 1 {
		t.Fatalf("store reads = %d, want 1 (cache misses)", st.reads)
	}
}

func TestMissingKey(t *testing.T) {
	st := &mapStore{m: map[string][]byte{}}
	c := New(st, 10)
	if _, ok, _ := c.Get("ghost"); ok {
		t.Fatal("missing key reported present")
	}
	// Absent values are not negatively cached: each miss re-reads.
	c.Get("ghost")
	if st.reads != 2 {
		t.Fatalf("store reads = %d, want 2", st.reads)
	}
}

func TestPutUpdatesCache(t *testing.T) {
	st := &mapStore{m: map[string][]byte{"k": []byte("old")}}
	c := New(st, 10)
	c.Get("k")
	c.PutHashed("k", keyhash.String("k"), []byte("new"))
	v, _, _ := c.Get("k")
	if string(v) != "new" {
		t.Fatalf("Get after Put = %q", v)
	}
	if st.reads != 1 {
		t.Fatalf("store reads = %d, updated value should come from cache", st.reads)
	}
}

func TestLRUEviction(t *testing.T) {
	st := &mapStore{m: map[string][]byte{}}
	for i := 0; i < 5; i++ {
		st.m[fmt.Sprintf("k%d", i)] = []byte{byte(i)}
	}
	c := New(st, 3)
	c.Get("k0")
	c.Get("k1")
	c.Get("k2")
	c.Get("k0") // refresh k0
	c.Get("k3") // evicts k1 (least recent)
	if len(c.ents) != 3 {
		t.Fatalf("%d entries, want 3", len(c.ents))
	}
	before := st.reads
	c.Get("k0")
	if st.reads != before {
		t.Fatal("k0 was evicted despite being recently used")
	}
	c.Get("k1")
	if st.reads != before+1 {
		t.Fatal("k1 not evicted")
	}
}

func TestNilStore(t *testing.T) {
	c := New(nil, 4)
	if _, ok, err := c.Get("k"); ok || err != nil {
		t.Fatal("nil store must serve misses as absent")
	}
	c.PutHashed("k", keyhash.String("k"), []byte("v"))
	v, ok, _ := c.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get after Put = %q %v", v, ok)
	}
}

func TestBurstLocality(t *testing.T) {
	// §5.2's scenario: a hot-news burst where a handful of keys absorb
	// most reads. The hit rate must approach the skew.
	st := &mapStore{m: map[string][]byte{}}
	for i := 0; i < 100; i++ {
		st.m[fmt.Sprintf("k%d", i)] = []byte("v")
	}
	c := New(st, 10)
	for i := 0; i < 1000; i++ {
		c.Get(fmt.Sprintf("k%d", i%5)) // burst concentrated on 5 keys
	}
	if st.reads > 10 {
		t.Fatalf("burst hit rate too low: %d of 1000 reads missed", st.reads)
	}
}

// TestEntryKeepsItsOwnKey: an entry keeps a copy of its key, whether a miss
// or a Put entered it: a caller's key may be a slice of a larger string
// that the cache must not keep alive.
func TestEntryKeepsItsOwnKey(t *testing.T) {
	keys := strings.Repeat("k", 8) + "k1" + "k2"
	c := New(&mapStore{m: map[string][]byte{"k1": []byte("v")}}, 4)
	if _, found, err := c.GetBatchHashed([]string{keys[8:10]}, []uint64{keyhash.String("k1")}); err != nil || !found[0] {
		t.Fatalf("GetBatchHashed(k1) = %v, %v", found, err)
	}
	c.PutHashed(keys[10:12], keyhash.String("k2"), []byte("w"))
	base := uintptr(unsafe.Pointer(unsafe.StringData(keys)))
	inKeys := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= base && p < base+uintptr(len(keys))
	}
	for _, e := range c.ents {
		if inKeys(unsafe.String(unsafe.SliceData(e.key), len(e.key))) {
			t.Fatalf("entry %q shares the caller's string", e.key)
		}
	}
	if len(c.ents) != 2 {
		t.Fatalf("%d entries, want 2", len(c.ents))
	}
}

// hashedStore is a HashedStore backed by a map, counting the keys read.
type hashedStore struct {
	m     map[string][]byte
	reads int
}

func (s *hashedStore) Get(key string) ([]byte, bool, error) {
	return s.GetHashed(key, keyhash.String(key))
}

func (s *hashedStore) GetHashed(key string, _ uint64) ([]byte, bool, error) {
	s.reads++
	v, ok := s.m[key]
	return v, ok, nil
}

func (s *hashedStore) BatchGetHashed(keys []string, _ []uint64) ([][]byte, []bool, error) {
	vals, found := make([][]byte, len(keys)), make([]bool, len(keys))
	for i, k := range keys {
		vals[i], found[i], _ = s.GetHashed(k, 0)
	}
	return vals, found, nil
}

// refLRU is the reference the task cache is held to: container/list and a
// map, with the cache's policy written out plainly. A batch reads every
// key it does not hold from the store, a key given twice once for each
// time, and enters each found one as a put does.
type refLRU struct {
	capacity int
	order    *list.List // front = most recent; values are *refEntry
	byKey    map[string]*list.Element
	store    map[string][]byte
	reads    int
}

type refEntry struct {
	key   string
	value []byte
}

func (r *refLRU) put(key string, v []byte) {
	if el, ok := r.byKey[key]; ok {
		el.Value.(*refEntry).value = v
		r.order.MoveToFront(el)
		return
	}
	r.byKey[key] = r.order.PushFront(&refEntry{key, v})
	if r.order.Len() > r.capacity {
		last := r.order.Back()
		r.order.Remove(last)
		delete(r.byKey, last.Value.(*refEntry).key)
	}
}

func (r *refLRU) getBatch(keys []string) ([][]byte, []bool) {
	vals, found := make([][]byte, len(keys)), make([]bool, len(keys))
	var miss []int
	for i, k := range keys {
		if el, ok := r.byKey[k]; ok {
			r.order.MoveToFront(el)
			vals[i], found[i] = el.Value.(*refEntry).value, true
		} else {
			miss = append(miss, i)
		}
	}
	r.reads += len(miss)
	for _, i := range miss {
		if v, ok := r.store[keys[i]]; ok {
			vals[i], found[i] = v, true
			r.put(keys[i], v)
		}
	}
	return vals, found
}

// TestTaskCacheMatchesReferenceLRU runs seeded random Get, GetBatch and
// Put sequences against the cache and the reference: the same values and
// the same store reads after every operation, the same keys held, and
// never more than capacity entries. Batches repeat keys, hit and miss.
func TestTaskCacheMatchesReferenceLRU(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(6)
		st := &hashedStore{m: map[string][]byte{}}
		ref := &refLRU{capacity: capacity, order: list.New(), byKey: map[string]*list.Element{}, store: st.m}
		keys := make([]string, 3*capacity+2)
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", i)
			if i%4 != 3 { // every fourth key is absent from the store
				st.m[keys[i]] = []byte(fmt.Sprintf("s%d", i))
			}
		}
		c := New(st, capacity)
		repeats := 0
		for step := 0; step < 2000; step++ {
			var batch []string
			switch op := rng.Intn(10); {
			case op < 3:
				k := keys[rng.Intn(len(keys))]
				v := []byte(fmt.Sprintf("p%d", step))
				c.PutHashed(k, keyhash.String(k), v)
				ref.put(k, v)
			case op < 6:
				batch = []string{keys[rng.Intn(len(keys))]}
				got, ok, err := c.Get(batch[0])
				if err != nil {
					t.Fatal(err)
				}
				want, wok := ref.getBatch(batch)
				if ok != wok[0] || !bytes.Equal(got, want[0]) {
					t.Fatalf("seed %d step %d: Get(%s) = %q %v, reference %q %v", seed, step, batch[0], got, ok, want[0], wok[0])
				}
			default:
				batch = make([]string, 1+rng.Intn(5))
				seen := map[string]bool{}
				for i := range batch {
					batch[i] = keys[rng.Intn(len(keys))]
					if seen[batch[i]] {
						repeats++
					}
					seen[batch[i]] = true
				}
				got, ok, err := c.GetBatchHashed(batch, keyhash.Strings(batch))
				if err != nil {
					t.Fatal(err)
				}
				want, wok := ref.getBatch(batch)
				for i := range batch {
					if ok[i] != wok[i] || !bytes.Equal(got[i], want[i]) {
						t.Fatalf("seed %d step %d: GetBatchHashed(%v)[%d] = %q %v, reference %q %v", seed, step, batch, i, got[i], ok[i], want[i], wok[i])
					}
				}
			}
			if st.reads != ref.reads {
				t.Fatalf("seed %d step %d: %d store reads, reference %d", seed, step, st.reads, ref.reads)
			}
			if len(c.ents) > capacity {
				t.Fatalf("seed %d step %d: %d entries, capacity %d", seed, step, len(c.ents), capacity)
			}
			for _, k := range keys {
				_, in := ref.byKey[k]
				if (c.find(k, keyhash.String(k)) >= 0) != in {
					t.Fatalf("seed %d step %d: cache holds %s is %v, reference %v", seed, step, k, !in, in)
				}
			}
		}
		if repeats == 0 {
			t.Fatalf("seed %d: no batch repeated a key", seed)
		}
	}
}

// TestCacheMissFillEvictAllocatesNothing is the zero-alloc gate of the
// task cache's miss path: once the slab is full and its entries' key
// buffers have grown, a miss that reads the store, fills an entry and
// evicts the least recently used one allocates nothing.
func TestCacheMissFillEvictAllocatesNothing(t *testing.T) {
	const capacity, n = 64, 128
	st := &hashedStore{m: map[string][]byte{}}
	keys, hs := make([]string, n), make([]uint64, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("uh:user-%04d", i)
		hs[i] = keyhash.String(keys[i])
		st.m[keys[i]] = []byte("history")
	}
	c := New(st, capacity)
	i := 0
	miss := func() {
		c.GetHashed(keys[i%n], hs[i%n])
		i++
	}
	for range 2 * n {
		miss()
	}
	reads := st.reads
	if allocs := testing.AllocsPerRun(1000, miss); allocs != 0 {
		t.Fatalf("a miss that fills and evicts: %v allocs, want 0", allocs)
	}
	if st.reads-reads != 1001 {
		t.Fatalf("%d of 1001 gets read the store; the gate measures misses", st.reads-reads)
	}
}
