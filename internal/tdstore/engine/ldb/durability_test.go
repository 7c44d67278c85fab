package ldb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tencentrec/internal/tdstore/engine"
)

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

// TestCompactOfTombstonesWritesAnEmptyTable: a full compaction drops
// tombstones, so merging tables that hold only tombstones over older
// values writes a table of 0 bytes. It must read as empty and reopen.
func TestCompactOfTombstonesWritesAnEmptyTable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20, MaxTables: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"a", "b", "c"}
	for _, k := range keys {
		if err := s.Put(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok, err := s.Get(k); err != nil || ok {
			t.Fatalf("Get(%s) after the compaction = %q %v %v, want absent", k, v, ok, err)
		}
	}
	tables, err := filepath.Glob(filepath.Join(dir, sstPrefix+"*"+sstSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("the compaction left tables %v, want one", tables)
	}
	if fi, err := os.Stat(tables[0]); err != nil || fi.Size() != 0 {
		t.Fatalf("the merged table: %v, %v; want 0 bytes", fi, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen on an empty table: %v", err)
	}
	defer s2.Close()
	if n, err := s2.Len(); err != nil || n != 0 {
		t.Fatalf("Len after reopen = %d %v, want 0", n, err)
	}
}

// TestReadsRacingCloseAndCompaction reads flushed keys with Get and Range
// while another goroutine flushes and compacts, and then closes (or
// crashes) the store under them. Every read gives the value written or
// ErrClosed: none may read a table whose mapping is gone.
func TestReadsRacingCloseAndCompaction(t *testing.T) {
	for _, crash := range []bool{false, true} {
		name := "Close"
		if crash {
			name = "Crash"
		}
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20, MaxTables: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			const nkeys = 400
			model := make(map[string]string, nkeys)
			keys := make([]string, 0, nkeys)
			for i := 0; i < nkeys; i++ {
				k := fmt.Sprintf("k%04d", i)
				keys = append(keys, k)
				model[k] = fmt.Sprintf("value-%d", i)
			}
			// Spread the keys over four tables, each overwritten once with
			// the same value, so a compaction has versions to merge.
			for tbl := 0; tbl < 4; tbl++ {
				for i := tbl; i < nkeys; i += 2 {
					if err := s.Put(keys[i], []byte(model[keys[i]])); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; ; i++ {
						if i%64 == 0 {
							err := s.Range(func(kv engine.KV) bool {
								if k, v := kv.Split(); model[k] != v {
									t.Errorf("Range: %s = %q, want %q", k, v, model[k])
									return false
								}
								return true
							})
							if err == ErrClosed {
								return
							}
							if err != nil {
								t.Errorf("Range: %v", err)
								return
							}
						}
						k := keys[i%nkeys]
						v, ok, err := s.Get(k)
						if err == ErrClosed {
							return
						}
						if err != nil || !ok || string(v) != model[k] {
							t.Errorf("Get(%s) = %q %v %v, want %q", k, v, ok, err, model[k])
							return
						}
					}
				}(g)
			}
			// The compactor rewrites a stripe of keys, flushes and merges
			// until the store is closed under it.
			merged := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; ; round++ {
					if round == 3 {
						close(merged)
					}
					for i := round % 8; i < nkeys; i += 8 {
						if err := s.Put(keys[i], []byte(model[keys[i]])); err != nil {
							if err != ErrClosed {
								t.Errorf("Put: %v", err)
							}
							return
						}
					}
					if err := s.Compact(); err != nil {
						if err != ErrClosed {
							t.Errorf("Compact: %v", err)
						}
						return
					}
				}
			}()
			<-merged
			if crash {
				s.Crash()
			} else if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			wg.Wait()
		})
	}
}
