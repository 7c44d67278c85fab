package tdstore

// Store-level microbenchmarks for the contention-free hot path: parallel
// point reads, batched reads and the Incr counter path through a full
// cluster (client → route → instance → striped engine). Run with
// -cpu 1,4,8 to see scaling:
//
//	go test -run=NONE -bench=BenchmarkStore -cpu 1,4,8 ./internal/tdstore/

import (
	"fmt"
	"runtime"
	"testing"
)

func benchCluster(b *testing.B) (*Client, []string) {
	b.Helper()
	c, err := NewCluster(Options{Instances: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	cl, err := c.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 4096)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("sb-%d", i)
		vals[i] = []byte("0123456789abcdef")
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		b.Fatal(err)
	}
	return cl, keys
}

// BenchmarkStoreParallelGet measures concurrent point reads: the key's
// instance from the fixed route, then the engine's striped read path.
func BenchmarkStoreParallelGet(b *testing.B) {
	cl, keys := benchCluster(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok, err := cl.Get(keys[i&(len(keys)-1)]); !ok || err != nil {
				b.Fatal("missing bench key")
			}
			i++
		}
	})
}

// BenchmarkStoreParallelBatchGet measures the batched read: 64 keys per
// op, sorted into one run per instance.
func BenchmarkStoreParallelBatchGet(b *testing.B) {
	cl, keys := benchCluster(b)
	const batch = 64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		buf := make([]string, batch)
		for pb.Next() {
			for j := range buf {
				buf[j] = keys[(i+j)&(len(keys)-1)]
			}
			if _, _, err := cl.BatchGet(buf); err != nil {
				b.Fatal(err)
			}
			i += batch
		}
	})
}

// BenchmarkStoreParallelPut measures the single-key write: the engine's
// PutKV, with no lock above it.
func BenchmarkStoreParallelPut(b *testing.B) {
	cl, keys := benchCluster(b)
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := cl.Put(keys[i&(len(keys)-1)], val); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkStoreParallelBatchPut measures the batched write: 64 keys of
// 16 bytes per op, one PutBatch per instance's run. It allocates the
// client's KV of each value and a fixed handful besides, however many
// instances the 64 keys span.
func BenchmarkStoreParallelBatchPut(b *testing.B) {
	cl, keys := benchCluster(b)
	const batch = 64
	val := []byte("0123456789abcdef")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		buf := make([]string, batch)
		vals := make([][]byte, batch)
		for j := range vals {
			vals[j] = val
		}
		for pb.Next() {
			for j := range buf {
				buf[j] = keys[(i+j)&(len(keys)-1)]
			}
			if err := cl.BatchPut(buf, vals); err != nil {
				b.Fatal(err)
			}
			i += batch
		}
	})
}

// BenchmarkStoreResidentBytes reports what the store keeps per key: the
// heap that survives a collection after 36,000 puts of 175-byte values
// (an ingest-sparse user history) into 3 servers, one copy per key. It
// counts the stored versions and their index, per key, as B/key. 36,000
// keys put about 141 in each stripe of each instance's engine, between an
// MDB table's growth steps at 96 and 192 keys, so the figure does not
// jump with the run: near a step, some stripes would have doubled and
// some not.
func BenchmarkStoreResidentBytes(b *testing.B) {
	const keys, valueLen = 36000, 175
	value := make([]byte, valueLen)
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var perKey float64
	for range b.N {
		c, err := NewCluster(Options{Instances: 16})
		if err != nil {
			b.Fatal(err)
		}
		cl, err := c.NewClient()
		if err != nil {
			b.Fatal(err)
		}
		before := liveHeap()
		for i := range keys {
			value[i%valueLen]++
			if err := cl.Put(fmt.Sprintf("uh:%d", i), value); err != nil {
				b.Fatal(err)
			}
		}
		perKey = float64(liveHeap()-before) / keys
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perKey, "B/key")
}
