package cache

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
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
	c.Put("k", []byte("new"))
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
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
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
	c.Put("k", []byte("v"))
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
	if _, found, err := c.GetBatch([]string{keys[8:10]}); err != nil || !found[0] {
		t.Fatalf("GetBatch(k1) = %v, %v", found, err)
	}
	c.Put(keys[10:12], []byte("w"))
	base := uintptr(unsafe.Pointer(unsafe.StringData(keys)))
	inKeys := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= base && p < base+uintptr(len(keys))
	}
	for k, el := range c.entries {
		if inKeys(k) || inKeys(el.Value.(*entry).key) {
			t.Fatalf("entry %q shares the caller's string", k)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("%d entries, want 2", c.Len())
	}
}
