package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

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
			if err := e.PutKV(engine.MakeKV("a", []byte("1"))); err != nil {
				t.Fatal(err)
			}
			v, ok, err := e.Get("a")
			if err != nil || !ok || string(v) != "1" {
				t.Fatalf("Get(a) = %q %v %v", v, ok, err)
			}
			if err := e.PutKV(engine.MakeKV("a", []byte("2"))); err != nil {
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

// TestEngineClosedErrors: after Close, every operation returns
// ErrClosed, the one value every engine uses, and none panics.
func TestEngineClosedErrors(t *testing.T) {
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			if err := e.PutKV(engine.MakeKV("a", []byte("1"))); err != nil {
				t.Fatal(err)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			ops := map[string]func() error{
				"Get":      func() error { _, _, err := e.Get("a"); return err },
				"Put":      func() error { return e.PutKV(engine.MakeKV("b", []byte("2"))) },
				"PutBatch": func() error { return e.PutBatch([]engine.KV{engine.MakeKV("b", []byte("2"))}) },
				"Delete":   func() error { return e.Delete("a") },
				"Len":      func() error { _, err := e.Len(); return err },
				"Range":    func() error { return e.Range(func(engine.KV) bool { return true }) },
			}
			for op, f := range ops {
				if err := f(); !errors.Is(err, engine.ErrClosed) {
					t.Errorf("%s after Close = %v, want ErrClosed", op, err)
				}
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
			if err := e.PutBatch(nil); err != nil {
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
	var kvs []engine.KV
	want := make(map[string]string)
	for i := 0; i < 100; i++ {
		k, v := fmt.Sprintf("b%03d", i), fmt.Sprintf("v%d", i)
		keys, kvs = append(keys, k), append(kvs, engine.MakeKV(k, []byte(v)))
		want[k] = v
	}
	keys, kvs = append(keys, "b000"), append(kvs, engine.MakeKV("b000", []byte("later")))
	want["b000"] = "later"
	if err := e.PutBatch(kvs); err != nil {
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
				if err := e.PutKV(engine.MakeKV(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i)))); err != nil {
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
			if err := e.Range(func(kv engine.KV) bool {
				k, v := kv.Split()
				seen[k] = v
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
				e.PutKV(engine.MakeKV(fmt.Sprintf("k%d", i), []byte("v")))
			}
			count := 0
			e.Range(func(engine.KV) bool {
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
	// A KV is built from the caller's buffer, not on it; an engine keeps
	// the KV it is given, and mutating a returned value must not corrupt
	// the store.
	for name, mk := range engines(t) {
		t.Run(name, func(t *testing.T) {
			e := mk()
			defer e.Close()
			src := []byte("hello")
			given := engine.MakeKV("k", src)
			e.PutKV(given)
			var kept engine.KV
			e.Range(func(kv engine.KV) bool {
				if kv.Key() == "k" {
					kept = kv
				}
				return kept == ""
			})
			if kept != given || unsafe.StringData(string(kept)) != unsafe.StringData(string(given)) {
				t.Fatalf("the engine keeps %q in a copy of its own, not the KV it was given", kept)
			}
			// The caller's buffer is reused for many keys, which live
			// through overwrites, deletes, a Range and (for LDB, past its
			// flush threshold of 64) a memtable flush.
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("shared-%d", i)
				copy(src, fmt.Sprintf("%05d", i))
				e.PutKV(engine.MakeKV(k, src))
				if i%3 == 0 {
					e.PutKV(engine.MakeKV(k, []byte("other")))
				} else if i%3 == 1 {
					e.Delete(k)
				}
			}
			e.Range(func(engine.KV) bool { return true })
			if v, _, _ := e.Get("shared-98"); string(v) != "00098" {
				t.Fatalf("Get(shared-98) = %q, want 00098", v)
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
						if err := e.PutKV(engine.MakeKV(k, []byte(fmt.Sprintf("%d", i)))); err != nil {
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
						if err := e.PutKV(engine.MakeKV(k, o.Value)); err != nil {
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
// reopens the LDB at random points (no flush — the directory is exactly
// what a dead process leaves). LDB keeps no write-ahead log, so a crash
// loses the memtable: the reference after a crash is the MDB model as it
// stood at the last table publish, which the model resumes from. After
// every crash and at the end, the recovered LDB must agree with that
// model key-for-key: durable recovery may not change engine semantics.
func TestLDBCrashReopenResumeConformance(t *testing.T) {
	type op struct {
		Kind  uint8
		Key   uint8
		Value []byte
		Crash bool
	}
	// Half the ops crash, so a memtable seldom holds more than a few keys:
	// a threshold of 2 makes most crashes come after a table publish, and
	// a MaxTables of 2 makes compactions run between them. With 16, no
	// crash in 20 streams followed a flush, and a store that lost its
	// tables in a crash passed.
	opts := ldb.Options{FlushThreshold: 2, MaxTables: 2}
	f := func(ops []op) bool {
		dir := t.TempDir()
		s, err := ldb.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		mdb := engine.NewMemory()
		defer func() { mdb.Close() }()
		contents := func(e engine.Engine) (map[string]string, bool) {
			m := make(map[string]string)
			err := e.Range(func(kv engine.KV) bool { k, v := kv.Split(); m[k] = v; return true })
			return m, err == nil
		}
		agree := func() bool {
			want, _ := contents(mdb)
			got, ok := contents(s)
			if !ok || len(got) != len(want) {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
			return true
		}
		// published is the model at the last table publish, flushes the
		// store's MemtableFlushes count when it was taken.
		published, _ := contents(mdb)
		var flushes int64
		for _, o := range ops {
			if o.Crash {
				s.Crash()
				if s, err = ldb.Open(dir, opts); err != nil {
					t.Fatal(err)
				}
				flushes = 0
				mdb.Close()
				mdb = engine.NewMemory()
				for k, v := range published {
					mdb.PutKV(engine.MakeKV(k, []byte(v)))
				}
				if !agree() {
					s.Close()
					return false
				}
			}
			k := fmt.Sprintf("key-%d", o.Key%32)
			switch o.Kind % 3 {
			case 0:
				if s.PutKV(engine.MakeKV(k, o.Value)) != nil || mdb.PutKV(engine.MakeKV(k, o.Value)) != nil {
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
			// A write that fills the memtable flushes it before it
			// returns: the model now holds what the new table published.
			if n := s.EngineStats().MemtableFlushes; n != flushes {
				flushes = n
				published, _ = contents(mdb)
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
