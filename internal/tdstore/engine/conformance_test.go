package engine_test

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"tencentrec/internal/tdstore/engine"
	"tencentrec/internal/tdstore/engine/ldb"
)

// engines enumerates every engine implementation under one conformance
// suite, the way TDStore treats them interchangeably (§3.3).
func engines(t *testing.T) map[string]func() engine.Engine {
	t.Helper()
	return map[string]func() engine.Engine{
		"mdb": func() engine.Engine { return engine.NewMemory() },
		"ldb": func() engine.Engine {
			s, err := ldb.Open(t.TempDir(), ldb.Options{FlushThreshold: 64, MaxTables: 4})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func TestEngineBasicOps(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			if _, ok, _ := e.Get("missing"); ok {
				t.Fatal("Get(missing) reported present")
			}
			if err := e.Put("a", []byte("1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := e.Get("a")
			if err != nil || !ok || string(v) != "1" {
				t.Fatalf("Get(a) = %q %v %v", v, ok, err)
			}
			if err := e.Put("a", []byte("2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = e.Get("a")
			if string(v) != "2" {
				t.Fatalf("overwrite lost: %q", v)
			}
			if err := e.Delete("a"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := e.Get("a"); ok {
				t.Fatal("Get after Delete reported present")
			}
			if err := e.Delete("never-existed"); err != nil {
				t.Fatalf("Delete(absent) = %v", err)
			}
		})
	}
}

// TestEnginePutBatch covers the empty batch, a key given twice in one
// batch (the later value wins) and a batch past LDB's flush threshold.
func TestEnginePutBatch(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			if err := e.PutBatch(nil, nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if n, err := e.Len(); err != nil || n != 0 {
				t.Fatalf("Len after an empty batch = %d, %v", n, err)
			}
			keys, want := putBatchOf(t, e)
			for k, v := range want {
				if got, ok, err := e.Get(k); err != nil || !ok || string(got) != v {
					t.Fatalf("Get(%s) = %q %v %v, want %q", k, got, ok, err, v)
				}
			}
			if n, err := e.Len(); err != nil || n != len(want) {
				t.Fatalf("Len = %d, %v; want %d of %d batched", n, err, len(want), len(keys))
			}
		})
	}
}

// putBatchOf writes one batch of 100 keys to e, the first key given a
// second time at the end, and returns the keys and what each must hold.
func putBatchOf(t *testing.T, e engine.Engine) ([]string, map[string]string) {
	t.Helper()
	var keys []string
	var values [][]byte
	want := make(map[string]string)
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("b%03d", i), fmt.Sprintf("v%d", i)
		keys, values = append(keys, k), append(values, []byte(v))
		want[k] = v
	}
	keys, values = append(keys, "b000"), append(values, []byte("later"))
	want["b000"] = "later"
	if err := e.PutBatch(keys, values); err != nil {
		t.Fatal(err)
	}
	return keys, want
}

// TestDurableEnginePutBatchReopen requires a batch written to a durable
// engine to read back whole after a reopen.
func TestDurableEnginePutBatchReopen(t *testing.T) {
	open := func(dir string) (engine.Engine, error) {
		return ldb.Open(dir, ldb.Options{FlushThreshold: 64, MaxTables: 4})
	}
	t.Run("ldb", func(t *testing.T) {
		dir := t.TempDir()
		e, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		_, want := putBatchOf(t, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e, err = open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for k, v := range want {
			if got, ok, err := e.Get(k); err != nil || !ok || string(got) != v {
				t.Fatalf("Get(%s) after reopen = %q %v %v, want %q", k, got, ok, err, v)
			}
		}
		if n, err := e.Len(); err != nil || n != len(want) {
			t.Fatalf("Len after reopen = %d, %v; want %d", n, err, len(want))
		}
	})
}

func TestEngineLenAndRange(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			const n = 200
			for i := 0; i < n; i++ {
				if err := e.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i += 2 {
				if err := e.Delete(fmt.Sprintf("k%03d", i)); err != nil {
					t.Fatal(err)
				}
			}
			got, err := e.Len()
			if err != nil || got != n/2 {
				t.Fatalf("Len = %d, %v; want %d", got, err, n/2)
			}
			seen := make(map[string]string)
			if err := e.Range(func(k string, v []byte) bool {
				seen[k] = string(v)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(seen) != n/2 {
				t.Fatalf("Range visited %d keys, want %d", len(seen), n/2)
			}
			for i := 1; i < n; i += 2 {
				k := fmt.Sprintf("k%03d", i)
				if seen[k] != fmt.Sprintf("v%d", i) {
					t.Fatalf("Range[%s] = %q", k, seen[k])
				}
			}
		})
	}
}

func TestEngineRangeEarlyStop(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			for i := 0; i < 50; i++ {
				e.Put(fmt.Sprintf("k%d", i), []byte("v"))
			}
			count := 0
			e.Range(func(string, []byte) bool {
				count++
				return count < 10
			})
			if count != 10 {
				t.Fatalf("Range visited %d after early stop, want 10", count)
			}
		})
	}
}

func TestEngineValueIsolation(t *testing.T) {
	// An engine takes the slice Put is given and never writes to it, and
	// mutating a returned value must not corrupt the store.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			src := []byte("hello")
			e.Put("k", src)
			// The one slice is handed to many keys and lives through
			// overwrites, deletes, a Range and (for LDB, past its flush
			// threshold of 64) a memtable flush.
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("shared-%d", i)
				e.Put(k, src)
				if i%3 == 0 {
					e.Put(k, []byte("other"))
				} else if i%3 == 1 {
					e.Delete(k)
				}
			}
			e.Range(func(string, []byte) bool { return true })
			if string(src) != "hello" {
				t.Fatalf("the engine wrote to a slice it was given: %q", src)
			}
			v1, _, _ := e.Get("k")
			if string(v1) != "hello" {
				t.Fatalf("Get(k) = %q, want hello", v1)
			}
			v1[0] = 'Y' // caller mutates the returned buffer
			v2, _, _ := e.Get("k")
			if string(v2) != "hello" {
				t.Fatalf("Get did not copy: %q", v2)
			}
		})
	}
}

func TestEngineConcurrentAccess(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						k := fmt.Sprintf("g%d-k%d", g, i%20)
						if err := e.Put(k, []byte(fmt.Sprintf("%d", i))); err != nil {
							t.Error(err)
							return
						}
						if _, _, err := e.Get(k); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			n, err := e.Len()
			if err != nil || n != 8*20 {
				t.Fatalf("Len = %d, %v; want 160", n, err)
			}
		})
	}
}

// TestEngineModelProperty drives each engine with random operation
// sequences and checks it against a plain map model.
func TestEngineModelProperty(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value []byte
	}
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			f := func(ops []op) bool {
				e := mk()
				defer e.Close()
				model := make(map[string][]byte)
				for _, o := range ops {
					k := fmt.Sprintf("key-%d", o.Key%32)
					switch o.Kind % 3 {
					case 0:
						if err := e.Put(k, o.Value); err != nil {
							return false
						}
						model[k] = append([]byte(nil), o.Value...)
					case 1:
						if err := e.Delete(k); err != nil {
							return false
						}
						delete(model, k)
					case 2:
						v, ok, err := e.Get(k)
						if err != nil {
							return false
						}
						mv, mok := model[k]
						if ok != mok || (ok && string(v) != string(mv)) {
							return false
						}
					}
				}
				n, err := e.Len()
				return err == nil && n == len(model)
			}
			cfg := &quick.Config{MaxCount: 30}
			if err := quick.Check(f, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLDBCrashReopenResumeConformance drives an LDB store and the MDB
// engine with the same random operation stream, but crash-kills and
// reopens the LDB at random points (no flush, no fsync rescue — the
// directory is exactly what a dead process leaves). After every crash
// and at the end, the recovered LDB must agree with MDB key-for-key:
// durable recovery may not change engine semantics.
func TestLDBCrashReopenResumeConformance(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value []byte
		Crash bool
	}
	opts := ldb.Options{FlushThreshold: 16, MaxTables: 3}
	f := func(ops []op) bool {
		dir := t.TempDir()
		s, err := ldb.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		mdb := engine.NewMemory()
		defer mdb.Close()
		agree := func() bool {
			want := make(map[string]string)
			mdb.Range(func(k string, v []byte) bool { want[k] = string(v); return true })
			got := make(map[string]string)
			if err := s.Range(func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
				return false
			}
			if len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
			return true
		}
		for _, o := range ops {
			if o.Crash {
				s.Crash()
				if s, err = ldb.Open(dir, opts); err != nil {
					t.Fatal(err)
				}
				if !agree() {
					s.Close()
					return false
				}
			}
			k := fmt.Sprintf("key-%d", o.Key%32)
			switch o.Kind % 3 {
			case 0:
				if s.Put(k, o.Value) != nil || mdb.Put(k, o.Value) != nil {
					s.Close()
					return false
				}
			case 1:
				if s.Delete(k) != nil || mdb.Delete(k) != nil {
					s.Close()
					return false
				}
			case 2:
				v, ok, err := s.Get(k)
				if err != nil {
					s.Close()
					return false
				}
				mv, mok, _ := mdb.Get(k)
				if ok != mok || (ok && string(v) != string(mv)) {
					s.Close()
					return false
				}
			}
		}
		ok := agree()
		s.Close()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	e := engine.NewMemoryTTL(10*time.Second, clock)
	e.Put("k", []byte("v"))
	if _, ok, _ := e.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(11 * time.Second)
	if _, ok, _ := e.Get("k"); ok {
		t.Fatal("expired entry still present")
	}
	n, _ := e.Len()
	if n != 0 {
		t.Fatalf("Len after expiry = %d", n)
	}
	// Re-put resets the clock.
	e.Put("k", []byte("v2"))
	now = now.Add(5 * time.Second)
	if v, ok, _ := e.Get("k"); !ok || string(v) != "v2" {
		t.Fatal("refreshed entry missing")
	}
}
