package serving

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"tencentrec/internal/obsv"
)

// fakeStore is a Store over a map that counts per-key fetches, fails
// every BatchGet with err while it is set, and can hold one read.
type fakeStore struct {
	mu     sync.Mutex
	data   map[string][]byte
	counts map[string]int
	err    error
	// gate, when set, holds the next BatchGet after it has read its
	// values: the read signals on read, then waits for gate to close.
	gate chan struct{}
	read chan struct{}
}

func newFakeStore(data map[string][]byte) *fakeStore {
	return &fakeStore{data: data, counts: make(map[string]int)}
}

func (s *fakeStore) BatchGet(keys []string) ([][]byte, []bool, error) {
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return nil, nil, err
	}
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	for i, k := range keys {
		s.counts[k]++
		vals[i], found[i] = s.data[k], s.data[k] != nil
	}
	gate := s.gate
	s.gate = nil
	s.mu.Unlock()
	if gate != nil {
		s.read <- struct{}{}
		<-gate
	}
	return vals, found, nil
}

func (s *fakeStore) fetches(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[key]
}

func (s *fakeStore) put(key string, val []byte) {
	s.mu.Lock()
	s.data[key] = val
	s.mu.Unlock()
}

func (s *fakeStore) setErr(err error) {
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
}

func decodeString(b []byte) (any, error) { return string(b), nil }

// TestCacheTTLExpiry: a cached value is served without the store until
// the TTL elapses, then re-fetched.
func TestCacheTTLExpiry(t *testing.T) {
	st := newFakeStore(map[string][]byte{"k": []byte("v1")})
	rd := NewReader(st, Config{CacheTTL: 30 * time.Millisecond})

	if v, ok, _ := rd.Get("k", decodeString); !ok || v.(string) != "v1" {
		t.Fatalf("first read: %v %v", v, ok)
	}
	st.put("k", []byte("v2"))
	if v, _, _ := rd.Get("k", decodeString); v.(string) != "v1" {
		t.Fatalf("within TTL: got %v, want cached v1", v)
	}
	if got := st.fetches("k"); got != 1 {
		t.Fatalf("store fetched %d times within TTL, want 1", got)
	}
	time.Sleep(40 * time.Millisecond)
	if v, _, _ := rd.Get("k", decodeString); v.(string) != "v2" {
		t.Fatalf("past TTL: got %v, want fresh v2", v)
	}
	if got := st.fetches("k"); got != 2 {
		t.Fatalf("store fetched %d times past TTL, want 2", got)
	}
}

// putNegative records that key does not exist, as a read that finds it
// absent does.
func putNegative(c *Cache, key string) { c.put(key, nil, true, c.gen.Load()) }

// putValue stores a decoded value under key, as a read that loaded it does.
func putValue(c *Cache, key string, val any) { c.put(key, val, false, c.gen.Load()) }

// TestNegativeCache: a missing key is answered from the negative cache
// within NegativeTTL, and a key written afterwards becomes visible once
// the negative entry expires.
func TestNegativeCache(t *testing.T) {
	st := newFakeStore(map[string][]byte{})
	rd := NewReader(st, Config{NegativeTTL: 30 * time.Millisecond})

	if _, ok, _ := rd.Get("k", decodeString); ok {
		t.Fatal("missing key reported found")
	}
	if _, ok, _ := rd.Get("k", decodeString); ok {
		t.Fatal("negative hit reported found")
	}
	if got := st.fetches("k"); got != 1 {
		t.Fatalf("store consulted %d times within NegativeTTL, want 1", got)
	}
	st.put("k", []byte("v"))
	time.Sleep(40 * time.Millisecond)
	v, ok, err := rd.Get("k", decodeString)
	if err != nil || !ok || v.(string) != "v" {
		t.Fatalf("new key masked past NegativeTTL: v=%v ok=%v err=%v", v, ok, err)
	}

	t.Run("dropped on write", func(t *testing.T) {
		st := newFakeStore(map[string][]byte{"pos": []byte("old")})
		rd := NewReader(st, Config{CacheTTL: time.Hour, NegativeTTL: time.Hour})
		reg := obsv.NewRegistry()
		rd.Instrument(reg)
		rd.DropNegative("neg") // nothing cached, no live negative: the one-load path
		rd.Get("neg", decodeString)
		rd.Get("pos", decodeString)
		if n := rd.cache.negs.Load(); n != 1 {
			t.Fatalf("%d live negatives after one miss, want 1", n)
		}
		st.put("neg", []byte("v"))
		st.put("pos", []byte("new"))
		rd.DropNegative("neg", "pos", "never-read")
		if v, ok, _ := rd.Get("neg", decodeString); !ok || v.(string) != "v" {
			t.Fatalf("a written key still reads absent: v=%v ok=%v", v, ok)
		}
		if v, _, _ := rd.Get("pos", decodeString); v.(string) != "old" {
			t.Fatalf("a positive entry was dropped by the write: read %v, want the cached value until its TTL", v)
		}
		if n := rd.cache.negs.Load(); n != 0 {
			t.Fatalf("%d live negatives after the drop, want 0", n)
		}
		if n := reg.Counter("serving_cache_negative_dropped_total", "").Value(); n != 1 {
			t.Fatalf("serving_cache_negative_dropped_total = %d, want 1", n)
		}
	})

	t.Run("live count", func(t *testing.T) {
		c := NewCache(time.Hour, 20*time.Millisecond, cacheShards) // one entry per shard
		negs := func(want int64, when string) {
			t.Helper()
			if n := c.negs.Load(); n != want {
				t.Fatalf("%d live negatives %s, want %d", n, when, want)
			}
		}
		putNegative(c, "a")
		putNegative(c, "a")
		negs(1, "after the same miss twice")
		putValue(c, "a", 1)
		negs(0, "after the key was cached with a value")
		putNegative(c, "a")
		negs(1, "after the value gave way to a miss")
		time.Sleep(30 * time.Millisecond)
		if _, _, ok := c.Get("a"); ok {
			t.Fatal("expired negative entry served")
		}
		negs(0, "after expiry")
		putNegative(c, "a")
		sh := c.shardFor("a")
		for i := 0; ; i++ { // a second key of a's shard evicts it
			if k := fmt.Sprintf("b%d", i); c.shardFor(k) == sh {
				putValue(c, k, 2)
				break
			}
		}
		negs(0, "after eviction")
		putNegative(c, "x")
		putNegative(c, "y")
		c.Invalidate()
		negs(0, "after Invalidate")
		if c.Len() != 0 {
			t.Fatalf("%d entries after Invalidate", c.Len())
		}
	})
}

// TestCacheReapsExpiredOnPut: an expired entry no one reads again leaves
// at its shard's next insert, which removes at most two such entries from
// the LRU back and counts none as an eviction.
func TestCacheReapsExpiredOnPut(t *testing.T) {
	rd := NewReader(newFakeStore(nil), Config{CacheTTL: 20 * time.Millisecond, NegativeTTL: 20 * time.Millisecond})
	reg := obsv.NewRegistry()
	rd.Instrument(reg)
	c := rd.cache
	sh := c.shardFor("k0")
	var keys []string
	for i := 0; len(keys) < 5; i++ {
		if k := fmt.Sprintf("k%d", i); c.shardFor(k) == sh {
			keys = append(keys, k)
		}
	}
	putValue(c, keys[0], 0)
	putNegative(c, keys[1])
	putValue(c, keys[2], 2)
	time.Sleep(30 * time.Millisecond)
	putValue(c, keys[3], 3)
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d after a put past the TTL, want 2 (two of three expired entries reaped)", n)
	}
	if n := c.negs.Load(); n != 0 {
		t.Fatalf("%d live negatives after the expired one was reaped, want 0", n)
	}
	putValue(c, keys[4], 4)
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d after a second put, want 2 (the last expired entry reaped)", n)
	}
	if _, _, ok := c.Get(keys[3]); !ok {
		t.Fatal("a live entry was reaped")
	}
	if n := reg.Counter("serving_cache_evictions_total", "").Value(); n != 0 {
		t.Fatalf("serving_cache_evictions_total = %d, want 0: reaping is not eviction", n)
	}
}

// TestInvalidate: Invalidate makes the next read observe fresh state
// regardless of TTL — the Drain contract.
func TestInvalidate(t *testing.T) {
	st := newFakeStore(map[string][]byte{"k": []byte("v1")})
	rd := NewReader(st, Config{CacheTTL: time.Hour})
	rd.Get("k", decodeString)
	st.put("k", []byte("v2"))
	rd.Invalidate()
	if v, _, _ := rd.Get("k", decodeString); v.(string) != "v2" {
		t.Fatalf("post-invalidate read got %v, want v2", v)
	}
}

// TestInvalidateDuringRead: a store read that began before Invalidate
// caches nothing, so the first read after Invalidate sees the store as it
// is then — the Drain contract for a read in flight across the drain.
func TestInvalidateDuringRead(t *testing.T) {
	reads := map[string]func(rd *Reader) (any, bool){
		"Get": func(rd *Reader) (any, bool) {
			v, ok, _ := rd.Get("k", decodeString)
			return v, ok
		},
		"GetBatch": func(rd *Reader) (any, bool) {
			vals, found, _ := rd.GetBatch([]string{"k"}, decodeString)
			return vals[0], found[0]
		},
	}
	for name, read := range reads {
		for _, before := range []string{"v1", ""} { // a value, then "absent"
			t.Run(fmt.Sprintf("%s/before=%q", name, before), func(t *testing.T) {
				st := newFakeStore(map[string][]byte{})
				if before != "" {
					st.put("k", []byte(before))
				}
				gate := make(chan struct{})
				st.gate, st.read = gate, make(chan struct{})
				rd := NewReader(st, Config{CacheTTL: time.Hour, NegativeTTL: time.Hour})
				done := make(chan any)
				go func() {
					v, _ := read(rd)
					done <- v
				}()
				<-st.read // the read holds the old state and has not returned
				st.put("k", []byte("v2"))
				rd.Invalidate()
				close(gate)
				<-done
				if v, ok := read(rd); !ok || v.(string) != "v2" {
					t.Fatalf("read after Invalidate = %v (found %v), want v2: the read that straddled it cached the old state", v, ok)
				}
			})
		}
	}
}

// TestStoreErrorCachesNothing: a miss whose store read fails returns the
// store's error from Get and GetBatch and caches neither a value nor an
// "absent"; the first reads after the store recovers return what it holds.
func TestStoreErrorCachesNothing(t *testing.T) {
	st := newFakeStore(map[string][]byte{"k": []byte("v")})
	down := errors.New("store down")
	st.setErr(down)
	rd := NewReader(st, Config{CacheTTL: time.Hour, NegativeTTL: time.Hour})
	if _, _, err := rd.Get("k", decodeString); !errors.Is(err, down) {
		t.Fatalf("Get err = %v, want the store's", err)
	}
	if _, _, err := rd.GetBatch([]string{"k", "absent"}, decodeString); !errors.Is(err, down) {
		t.Fatalf("GetBatch err = %v, want the store's", err)
	}
	if n := rd.cache.Len(); n != 0 {
		t.Fatalf("%d entries cached by failed reads, want 0", n)
	}
	st.setErr(nil)
	if v, ok, err := rd.Get("k", decodeString); err != nil || !ok || v.(string) != "v" {
		t.Fatalf("Get after recovery = %v %v %v, want v", v, ok, err)
	}
	vals, found, err := rd.GetBatch([]string{"k", "absent"}, decodeString)
	if err != nil || !found[0] || vals[0].(string) != "v" || found[1] {
		t.Fatalf("GetBatch after recovery = %v %v %v, want [v absent]", vals, found, err)
	}
	if n := st.fetches("absent"); n != 1 {
		t.Fatalf("absent key read %d times after recovery, want 1: a failed read cached it", n)
	}
}

// TestLRUBound: the cache never holds more entries than its capacity;
// evictions make room rather than growing.
func TestLRUBound(t *testing.T) {
	c := NewCache(time.Hour, time.Hour, cacheShards*4)
	for i := 0; i < cacheShards*32; i++ {
		putValue(c, fmt.Sprintf("key-%d", i), i)
	}
	if n := c.Len(); n > cacheShards*4 {
		t.Fatalf("cache holds %d entries, cap %d", n, cacheShards*4)
	}
}

// TestLRUEvictionOrder: within a shard the least-recently-used entry
// goes first.
func TestLRUEvictionOrder(t *testing.T) {
	c := NewCache(time.Hour, time.Hour, cacheShards) // one entry per shard
	sh := c.shardFor("a")
	sh.cap = 2
	// Find three keys in the same shard.
	keys := []string{}
	for i := 0; len(keys) < 3 && i < 10000; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) == sh {
			keys = append(keys, k)
		}
	}
	putValue(c, keys[0], 0)
	putValue(c, keys[1], 1)
	c.Get(keys[0]) // refresh 0; 1 is now LRU
	putValue(c, keys[2], 2)
	if _, _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently-used entry was evicted")
	}
}

// TestGetBatchMixed: a batch over cached, cold and absent keys serves
// hits from the cache and fetches only the misses.
func TestGetBatchMixed(t *testing.T) {
	st := newFakeStore(map[string][]byte{"a": []byte("va"), "b": []byte("vb")})
	rd := NewReader(st, Config{})
	rd.Get("a", decodeString) // warm a

	vals, found, err := rd.GetBatch([]string{"a", "b", "missing"}, decodeString)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || vals[0].(string) != "va" || !found[1] || vals[1].(string) != "vb" || found[2] {
		t.Fatalf("batch results: vals=%v found=%v", vals, found)
	}
	if got := st.fetches("a"); got != 1 {
		t.Fatalf("cached key fetched %d times, want 1", got)
	}
	if got := st.fetches("b"); got != 1 {
		t.Fatalf("cold key fetched %d times, want 1", got)
	}
}

// TestConcurrentMixedLoad exercises the full reader under -race: many
// goroutines over a small hot key set with concurrent invalidations.
func TestConcurrentMixedLoad(t *testing.T) {
	data := make(map[string][]byte)
	for i := 0; i < 8; i++ {
		data[fmt.Sprintf("k%d", i)] = []byte(strings.Repeat("x", 32))
	}
	st := newFakeStore(data)
	rd := NewReader(st, Config{CacheTTL: 5 * time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%8)
				if g%4 == 3 && i%50 == 0 {
					rd.Invalidate()
					continue
				}
				if i%3 == 0 {
					vals, found, err := rd.GetBatch([]string{k, "absent"}, decodeString)
					if err != nil || !found[0] || len(vals[0].(string)) != 32 || found[1] {
						t.Errorf("batch %s: vals=%v found=%v err=%v", k, vals, found, err)
						return
					}
				} else {
					v, ok, err := rd.Get(k, decodeString)
					if err != nil || !ok || len(v.(string)) != 32 {
						t.Errorf("get %s: v=%v ok=%v err=%v", k, v, ok, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
