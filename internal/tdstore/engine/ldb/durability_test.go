package ldb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestBlockCacheServesRepeatReads flushes values to a table and reads
// them twice: the second pass must be served by the cache.
func TestBlockCacheServesRepeatReads(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 50; i++ {
			v, ok, err := s.Get(fmt.Sprintf("k%d", i))
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("pass %d: k%d = %q %v %v", pass, i, v, ok, err)
			}
		}
	}
	st := s.EngineStats()
	if st.BlockCacheHits < 50 {
		t.Fatalf("cache hits = %d, want >= 50", st.BlockCacheHits)
	}
	if st.BlockCacheMisses == 0 {
		t.Fatal("no cache misses recorded on first pass")
	}
	// Value isolation through the cache: mutating a returned slice must
	// not poison later reads.
	v, _, _ := s.Get("k0")
	for i := range v {
		v[i] = 'X'
	}
	v2, _, _ := s.Get("k0")
	if string(v2) != "v0" {
		t.Fatalf("cache returned aliased value: %q", v2)
	}
}

// TestBlockCacheDisabled makes sure a negative budget turns the cache
// off without breaking reads.
func TestBlockCacheDisabled(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte("v"))
	s.Flush()
	for i := 0; i < 3; i++ {
		if v, ok, _ := s.Get("k"); !ok || string(v) != "v" {
			t.Fatalf("read %d failed: %q %v", i, v, ok)
		}
	}
	st := s.EngineStats()
	if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
		t.Fatalf("disabled cache recorded traffic: %d hits %d misses", st.BlockCacheHits, st.BlockCacheMisses)
	}
}

// TestBlockCacheEviction keeps the cache byte-bounded under a tiny
// budget.
func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(1 << 10)
	t1 := &sstable{}
	for i := 0; i < 100; i++ {
		c.put(t1, int64(i*100), make([]byte, 100))
	}
	c.mu.Lock()
	used := c.used
	c.mu.Unlock()
	if used > 1<<10 {
		t.Fatalf("cache used %d bytes, budget %d", used, 1<<10)
	}
	c.dropTable(t1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.used != 0 || c.ll.Len() != 0 {
		t.Fatalf("dropTable left %d bytes / %d entries", c.used, c.ll.Len())
	}
}

// TestBackgroundCompactionSupersedesInputs crashes "between" publishing
// a merged table and deleting its inputs by recreating that disk layout,
// then checks reopen drops the stale inputs.
func TestBackgroundCompactionSupersedesInputs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("old"))
	s.Flush() // sst-00000000
	s.Put("k", []byte("new"))
	s.Flush() // sst-00000001
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Resurrect a stale input alongside the merged range table: a crash
	// mid-cleanup leaves exactly this layout.
	stale := filepath.Join(dir, "sst-00000000.tbl")
	f, err := os.Create(stale)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeRecord(f, record{key: []byte("k"), value: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok, _ := s2.Get("k"); !ok || string(v) != "new" {
		t.Fatalf("stale input resurrected: k = %q %v", v, ok)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("superseded table not removed: %v", err)
	}
}

// TestCheckpointIsConsistentSnapshot checkpoints a live store, keeps
// mutating and compacting the source, and then opens the checkpoint:
// it must hold exactly the state at checkpoint time.
func TestCheckpointIsConsistentSnapshot(t *testing.T) {
	src := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	s, err := Open(src, Options{FlushThreshold: 4, MaxTables: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Delete("k00")
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	// Mutate and compact the source after the checkpoint; hard links must
	// keep the checkpointed tables alive even as compaction unlinks them.
	for i := 0; i < 40; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte("mutated"))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	c, err := Open(ckpt, Options{})
	if err != nil {
		t.Fatalf("open checkpoint: %v", err)
	}
	defer c.Close()
	if _, ok, _ := c.Get("k00"); ok {
		t.Fatal("deleted key present in checkpoint")
	}
	for i := 1; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		v, ok, err := c.Get(k)
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("checkpoint %s = %q %v %v, want v%d", k, v, ok, err, i)
		}
	}
	n, _ := c.Len()
	if n != 19 {
		t.Fatalf("checkpoint Len = %d, want 19", n)
	}
}

// TestCheckpointOverwritesStale reuses a checkpoint directory and makes
// sure tables from the previous checkpoint cannot leak into the new one.
func TestCheckpointOverwritesStale(t *testing.T) {
	ckpt := t.TempDir()
	s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("old-only", []byte("x"))
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	s.Delete("old-only")
	s.Put("new-only", []byte("y"))
	if err := s.Checkpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	c, err := Open(ckpt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok, _ := c.Get("old-only"); ok {
		t.Fatal("stale checkpoint content leaked into a reused directory")
	}
	if v, ok, _ := c.Get("new-only"); !ok || string(v) != "y" {
		t.Fatalf("new-only = %q %v", v, ok)
	}
}

// TestRecoveryStats reports the time Open took.
func TestRecoveryStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	s.Close()
	s2, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.EngineStats(); st.RecoveryNanos <= 0 {
		t.Fatal("RecoveryNanos not recorded")
	}
}

func BenchmarkLDBRecovery(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, 64)
	for i := 0; i < 10000; i++ {
		s.Put(fmt.Sprintf("k%d", i), v)
	}
	s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := Open(dir, Options{FlushThreshold: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s2.Close()
		b.StartTimer()
	}
}
