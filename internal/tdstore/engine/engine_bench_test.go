package engine

// MDB microbenchmarks: the striped engine against the pre-striping seed
// engine (one RWMutex over one map), which is preserved here as the
// baseline so the comparison stays runnable. Run with -cpu 1,4,8 to see
// the contention profile:
//
//	go test -run=NONE -bench=BenchmarkMDB -cpu 1,4,8 ./internal/tdstore/engine/
import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// seedMemory is a faithful copy of the seed MDB engine: a single
// RWMutex guarding a single map of seedEntry values (TTL machinery
// included, as the original carried it even in non-TTL mode), copying in
// on Put as well as out on Get. Every reader and writer of any key
// serializes on m.mu — the contention point the striped Memory removes.
type seedMemory struct {
	mu    sync.RWMutex
	data  map[string]seedEntry
	ttl   time.Duration
	clock func() time.Time
}

type seedEntry struct {
	value   []byte
	expires time.Time // zero means never
}

func newSeedMemory() *seedMemory {
	return &seedMemory{data: make(map[string]seedEntry), clock: time.Now}
}

func (m *seedMemory) Get(key string) ([]byte, bool, error) {
	m.mu.RLock()
	e, ok := m.data[key]
	m.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	if !e.expires.IsZero() && m.clock().After(e.expires) {
		m.mu.Lock()
		if e2, ok2 := m.data[key]; ok2 && !e2.expires.IsZero() && m.clock().After(e2.expires) {
			delete(m.data, key)
		}
		m.mu.Unlock()
		return nil, false, nil
	}
	out := make([]byte, len(e.value))
	copy(out, e.value)
	return out, true, nil
}

func (m *seedMemory) Put(key string, value []byte) error {
	cp := make([]byte, len(value))
	copy(cp, value)
	e := seedEntry{value: cp}
	if m.ttl > 0 {
		e.expires = m.clock().Add(m.ttl)
	}
	m.mu.Lock()
	m.data[key] = e
	m.mu.Unlock()
	return nil
}

// benchEngine is the subset of Engine the benchmarks drive.
type benchEngine interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, value []byte) error
}

// stripedBench drives the striped engine as a benchEngine: a Put builds
// the KV, as the seed engine's Put made its copy.
type stripedBench struct{ *Memory }

func (m stripedBench) Put(key string, value []byte) error { return m.PutKV(MakeKV(key, value)) }

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%d", i)
	}
	return keys
}

func preload(b *testing.B, e benchEngine, keys []string) {
	b.Helper()
	val := []byte("0123456789abcdef")
	for _, k := range keys {
		if err := e.Put(k, val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMDBConcurrentRead is the headline store microbenchmark:
// parallel readers over a preloaded key set.
func BenchmarkMDBConcurrentRead(b *testing.B) {
	keys := benchKeys(4096)
	for name, mk := range map[string]func() benchEngine{
		"striped": func() benchEngine { return stripedBench{NewMemory()} },
		"seed":    func() benchEngine { return newSeedMemory() },
	} {
		b.Run(name, func(b *testing.B) {
			e := mk()
			preload(b, e, keys)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := keys[i&(len(keys)-1)]
					if _, ok, err := e.Get(k); !ok || err != nil {
						b.Fatal("missing bench key")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkMDBConcurrentMixed is 90% reads / 10% writes, the shape of
// the pipeline's counter traffic.
func BenchmarkMDBConcurrentMixed(b *testing.B) {
	keys := benchKeys(4096)
	val := []byte("0123456789abcdef")
	for name, mk := range map[string]func() benchEngine{
		"striped": func() benchEngine { return stripedBench{NewMemory()} },
		"seed":    func() benchEngine { return newSeedMemory() },
	} {
		b.Run(name, func(b *testing.B) {
			e := mk()
			preload(b, e, keys)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := keys[i&(len(keys)-1)]
					if i%10 == 9 {
						if err := e.Put(k, val); err != nil {
							b.Fatal(err)
						}
					} else if _, _, err := e.Get(k); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}
