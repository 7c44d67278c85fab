package ldb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLDBOpen writes the fuzzer's bytes as a store's WAL and as one of its
// tables, then opens the store. Open must either fail or give a store on
// which Get agrees with Range for every key Range shows, and neither may
// panic. The WAL reader truncates what it cannot parse as a torn tail;
// the table reader refuses it.
func FuzzLDBOpen(f *testing.F) {
	var wal []byte
	wal = appendRecord(wal, false, "alpha", []byte("one"))
	wal = appendRecord(wal, false, "beta", []byte("two"))
	wal = appendRecord(wal, true, "alpha", "")
	var table []byte
	for _, k := range []string{"a", "b", "c"} {
		table = appendRecord(table, false, k, []byte("v-"+k))
	}
	var dup []byte
	for _, k := range []string{"a", "b", "b", "c"} {
		dup = appendRecord(dup, false, k, []byte("v-"+k))
	}
	f.Add(wal, []byte(nil))              // a valid WAL
	f.Add(wal[:len(wal)-3], []byte(nil)) // a WAL cut mid-record
	f.Add([]byte(nil), table)            // a valid table
	f.Add(wal, dup)                      // a table with a duplicated key
	f.Fuzz(func(t *testing.T, wal, table []byte) {
		dir := t.TempDir()
		if len(wal) > 0 {
			if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if len(table) > 0 {
			if err := os.WriteFile(filepath.Join(dir, tableName(0, 0)), table, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		defer s.Close()
		got := make(map[string][]byte)
		if err := rangePairs(s, func(k string, v []byte) bool {
			if _, twice := got[k]; twice {
				t.Errorf("Range showed %q twice", k)
			}
			got[k] = bytes.Clone(v)
			return true
		}); err != nil {
			t.Fatalf("Range on an opened store: %v", err)
		}
		for k, want := range got {
			v, ok, err := s.Get(k)
			if err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("Get(%q) = %q %v %v, Range gave %q", k, v, ok, err, want)
			}
		}
		if n, err := s.Len(); err != nil || n != len(got) {
			t.Fatalf("Len = %d %v, Range showed %d keys", n, err, len(got))
		}
	})
}
