package ldb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTable writes recs, in the order given, as the table file name in
// dir.
func writeTable(t *testing.T, dir, name string, recs ...record) {
	t.Helper()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range recs {
		if _, err := writeRecord(f, rec); err != nil {
			t.Fatal(err)
		}
	}
}

func rec(key, value string) record { return record{key: []byte(key), value: []byte(value)} }

// TestTableDuplicateKeyLaterWins opens a table holding one key twice, as
// a merge that kept both records would have written it: the later record
// wins.
func TestTableDuplicateKeyLaterWins(t *testing.T) {
	dir := t.TempDir()
	writeTable(t, dir, tableName(0, 0), rec("a", "1"), rec("b", "old"), rec("b", "new"), rec("c", "3"))
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("a table with a duplicated key did not open: %v", err)
	}
	defer s.Close()
	if v, ok, err := s.Get("b"); err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get(b) = %q %v %v, want the later value", v, ok, err)
	}
	got := make(map[string]string)
	if err := rangePairs(s, func(k string, v []byte) bool { got[k] = string(v); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got["a"] != "1" || got["b"] != "new" || got["c"] != "3" {
		t.Fatalf("Range = %v", got)
	}
	if n, _ := s.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
}

// TestTableKeysOutOfOrderFailOpen requires a table whose keys are not
// sorted to fail Open, naming the table.
func TestTableKeysOutOfOrderFailOpen(t *testing.T) {
	dir := t.TempDir()
	name := tableName(0, 0)
	writeTable(t, dir, name, rec("a", "1"), rec("c", "3"), rec("b", "2"))
	s, err := Open(dir, Options{})
	if err == nil {
		s.Close()
		t.Fatal("Open accepted a table with keys out of order")
	}
	if !strings.Contains(err.Error(), name) {
		t.Fatalf("the error does not name the table %s: %v", name, err)
	}
}

// TestCompactStreamsNewestVersion merges tables holding overwrites and
// tombstones of interleaved keys and checks the merged table against the
// versions the writes left.
func TestCompactStreamsNewestVersion(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20, MaxTables: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := make(map[string]string)
	for round := 0; round < 4; round++ {
		for i := round; i < 40; i += round + 1 {
			k := fmt.Sprintf("k%02d", i)
			if (i+round)%5 == 0 {
				s.Delete(k)
				delete(want, k)
				continue
			}
			v := fmt.Sprintf("r%d", round)
			s.Put(k, []byte(v))
			want[k] = v
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.TableCount() != 1 {
		t.Fatalf("TableCount = %d after compact", s.TableCount())
	}
	s.tableMu.RLock()
	merged := s.tables[0]
	s.tableMu.RUnlock()
	if len(merged.ents) != len(want) {
		t.Fatalf("merged table holds %d keys, want %d live", len(merged.ents), len(want))
	}
	for i := range merged.ents {
		k := merged.key(i)
		if i > 0 && merged.key(i-1) >= k {
			t.Fatalf("merged keys out of order at %d: %q then %q", i, merged.key(i-1), k)
		}
		if v, ok, err := s.Get(k); err != nil || !ok || string(v) != want[k] {
			t.Fatalf("Get(%s) = %q %v %v, want %q", k, v, ok, err, want[k])
		}
	}
}

// TestTableFindSharedPrefixes reads back keys whose first eight bytes tie
// (long shared prefixes, short keys padded with zeros, a key of all 0xff
// bytes) from a table, and misses keys that sort between them.
func TestTableFindSharedPrefixes(t *testing.T) {
	s, err := Open(t.TempDir(), Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []string{"", "a", "ab", "ab\x00", "ab\x00\x01", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xffz"}
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("shared-prefix-%04d", i*2))
	}
	for _, k := range keys {
		if err := s.Put(k, []byte("v:"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if v, ok, err := s.Get(k); err != nil || !ok || string(v) != "v:"+k {
			t.Fatalf("Get(%q) = %q %v %v", k, v, ok, err)
		}
	}
	for _, k := range []string{"ab\x00\x00", "abc", "shared-prefix-0001", "shared-prefix-0599x", "shared-prefix-9999", "\xff\xff\xff\xff\xff\xff\xff\xffa"} {
		if v, ok, err := s.Get(k); err != nil || ok {
			t.Fatalf("Get(%q) = %q %v %v, want absent", k, v, ok, err)
		}
	}
}
