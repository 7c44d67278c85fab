package ldb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"tencentrec/internal/tdstore/engine"
)

// writeRecord writes rec to w in one Write, as a table holds it, and
// returns the bytes written.
func writeRecord(w io.Writer, rec record) (int, error) {
	return w.Write(appendRecord(nil, rec.tomb, string(rec.key), rec.value))
}

// TestReopenRecoversWhatCloseFlushed: a store that never reached its
// flush threshold publishes its memtable as a table on Close.
func TestReopenRecoversWhatCloseFlushed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20}) // never flush
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete("k50")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	v, ok, err := s2.Get("k7")
	if err != nil || !ok || string(v) != "v7" {
		t.Fatalf("Get(k7) after reopen = %q %v %v", v, ok, err)
	}
	if _, ok, _ := s2.Get("k50"); ok {
		t.Fatal("deleted key resurrected after reopen")
	}
	n, _ := s2.Len()
	if n != 99 {
		t.Fatalf("Len after reopen = %d, want 99", n)
	}
}

// TestWritesTouchNoFileUntilAFlush: a write goes to the memtable and
// nowhere else, so below the flush threshold the directory stays empty,
// and a crash loses what no flush published.
func TestWritesTouchNoFileUntilAFlush(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	files := func() []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch([]engine.KV{engine.MakeKV("b", []byte("2")), engine.MakeKV("c", []byte("3"))}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if names := files(); len(names) != 0 {
		t.Fatalf("writes below the flush threshold left files %v", names)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if names := files(); len(names) != 1 {
		t.Fatalf("a flush left files %v, want one table", names)
	}
	if err := s.Put("d", []byte("4")); err != nil {
		t.Fatal(err)
	}
	s.Crash()

	s2, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, want := range map[string]string{"a": "", "b": "2", "c": "3", "d": ""} {
		v, ok, err := s2.Get(k)
		if err != nil || ok != (want != "") || string(v) != want {
			t.Fatalf("after a crash %s = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
}

func TestReopenRecoversFromTables(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.TableCount() == 0 {
		t.Fatal("no SSTables were written")
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 200; i++ {
		v, ok, err := s2.Get(fmt.Sprintf("k%d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(k%d) = %q %v %v", i, v, ok, err)
		}
	}
}

func TestNewestVersionWinsAcrossTables(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := 0; round < 5; round++ {
		for i := 0; i < 4; i++ {
			s.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("r%d", round)))
		}
	}
	for i := 0; i < 4; i++ {
		v, ok, _ := s.Get(fmt.Sprintf("k%d", i))
		if !ok || string(v) != "r4" {
			t.Fatalf("Get(k%d) = %q %v, want r4", i, v, ok)
		}
	}
}

func TestCompactMergesAndDropsTombstones(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 8, MaxTables: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		s.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	for i := 0; i < 32; i++ {
		s.Delete(fmt.Sprintf("k%d", i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.TableCount(); got != 1 {
		t.Fatalf("TableCount after compact = %d, want 1", got)
	}
	n, _ := s.Len()
	if n != 32 {
		t.Fatalf("Len after compact = %d, want 32", n)
	}
	s.Close()

	// Compaction must not lose data across reopen.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n2, _ := s2.Len()
	if n2 != 32 {
		t.Fatalf("Len after compact+reopen = %d, want 32", n2)
	}
}

// TestCompactNoDuplicateRecords covers the write → tombstone → re-write
// key history across three tables: the merge must emit the key exactly
// once (re-adding it after the tombstone removed it from the live set
// must not append it to the output order a second time).
func TestCompactNoDuplicateRecords(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 1 << 20, MaxTables: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("v1"))
	s.Flush()
	s.Delete("k")
	s.Flush()
	s.Put("k", []byte("v2"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.TableCount(); got != 1 {
		t.Fatalf("TableCount after compact = %d, want 1", got)
	}
	if v, ok, err := s.Get("k"); err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Get(k) = %q %v %v, want v2", v, ok, err)
	}
	s.tableMu.RLock()
	path := s.tables[0].path
	s.tableMu.RUnlock()
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := 0
	for off := 0; off < len(data); recs++ {
		rec, n, err := readRecord(data[off:])
		if err != nil {
			t.Fatalf("merged table corrupt: %v", err)
		}
		if string(rec.key) != "k" {
			t.Fatalf("unexpected key %q in merged table", rec.key)
		}
		off += n
	}
	if recs != 1 {
		t.Fatalf("merged table carries %d records for one live key, want 1", recs)
	}
}

func TestAutoCompaction(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 4, MaxTables: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 400; i++ {
		s.Put(fmt.Sprintf("k%d", i%10), []byte{byte(i)})
	}
	s.WaitCompaction()
	if got := s.TableCount(); got > 4 {
		t.Fatalf("TableCount = %d, auto-compaction did not bound tables", got)
	}
	if st := s.EngineStats(); st.Compactions == 0 || st.CompactionBytes == 0 {
		t.Fatalf("%d compactions moved %d bytes, want both counted", st.Compactions, st.CompactionBytes)
	}
	if n, err := s.Len(); err != nil || n != 10 {
		t.Fatalf("Len = %d, %v; want 10", n, err)
	}
}

func TestEmptyValueRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("empty")
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("Get(empty) = %v %v %v", v, ok, err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Put("k", []byte("v")); err != ErrClosed {
		t.Fatalf("Put on closed = %v, want ErrClosed", err)
	}
	if _, _, err := s.Get("k"); err != ErrClosed {
		t.Fatalf("Get on closed = %v, want ErrClosed", err)
	}
}

// TestCompactOnceAfterCloseIsErrClosed: a merge asked of a closed store
// merges nothing and says so, rather than report a compaction done.
func TestCompactOnceAfterCloseIsErrClosed(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.compactOnce(); err != ErrClosed {
		t.Fatalf("compactOnce after Close = %v, want ErrClosed", err)
	}
}

func BenchmarkLDBPut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{FlushThreshold: 10000})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("key-%d", i%5000), val)
	}
}

func BenchmarkLDBGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{FlushThreshold: 1000})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		s.Put(fmt.Sprintf("key-%d", i), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(fmt.Sprintf("key-%d", i%5000))
	}
}

// rangePairs calls fn with the key and value of every version s.Range
// yields.
func rangePairs(s *Store, fn func(k string, v []byte) bool) error {
	return s.Range(func(kv engine.KV) bool {
		k, v := kv.Split()
		return fn(k, []byte(v))
	})
}

func TestRangeMergesAllLevels(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 4, MaxTables: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Spread keys across several tables plus the memtable, with
	// overwrites and deletes in newer levels.
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte("old"))
	}
	for i := 0; i < 10; i++ {
		s.Put(fmt.Sprintf("k%02d", i), []byte("new"))
	}
	s.Delete("k15")
	got := make(map[string]string)
	if err := rangePairs(s, func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 19 {
		t.Fatalf("Range saw %d keys, want 19", len(got))
	}
	if got["k03"] != "new" || got["k12"] != "old" {
		t.Fatalf("Range merged wrong versions: %v", got)
	}
	if _, ok := got["k15"]; ok {
		t.Fatal("deleted key visible in Range")
	}
	n, _ := s.Len()
	if n != 19 {
		t.Fatalf("Len = %d, want 19", n)
	}
}

func TestFlushEmptyMemtableIsNoop(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 0 {
		t.Fatalf("empty flush wrote a table")
	}
}

func TestCompactSingleTableIsNoop(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte("v"))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount = %d", s.TableCount())
	}
	if err := s.Compact(); err != nil { // single table: no merge needed
		t.Fatal(err)
	}
	v, ok, _ := s.Get("k")
	if !ok || string(v) != "v" {
		t.Fatalf("Get after compact = %q %v", v, ok)
	}
}

func TestForeignFilesIgnoredOnOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "sst-notanumber.tbl"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with foreign file: %v", err)
	}
	s.Close()
}

func TestCorruptTableRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FlushThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2")) // triggers flush to sst
	s.Close()

	tables, _ := filepath.Glob(filepath.Join(dir, "sst-*.tbl"))
	if len(tables) == 0 {
		t.Fatal("no table written")
	}
	// Flip a byte in the middle of the table.
	data, _ := os.ReadFile(tables[0])
	data[len(data)/2] ^= 0xff
	os.WriteFile(tables[0], data, 0o644)

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt table")
	}
}
