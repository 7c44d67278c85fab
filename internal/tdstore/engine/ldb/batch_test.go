package ldb

import (
	"fmt"
	"testing"

	"tencentrec/internal/tdstore/engine"
)

// countingFile counts the Write calls that reach the WAL file.
type countingFile struct {
	wfile
	writes int
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes++
	return c.wfile.Write(p)
}

// batchOf returns n keys and their values, each value 100 bytes, so a
// 64-record batch is larger than any 4 KB write buffer.
func batchOf(prefix string, n int) ([]string, [][]byte) {
	keys := make([]string, n)
	values := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%03d", prefix, i)
		values[i] = []byte(fmt.Sprintf("%-100d", i))
	}
	return keys, values
}

// kvsOf returns the KVs of values[i] under keys[i].
func kvsOf(keys []string, values [][]byte) []engine.KV {
	kvs := make([]engine.KV, len(keys))
	for i, k := range keys {
		kvs[i] = engine.MakeKV(k, values[i])
	}
	return kvs
}

// TestPutBatchIsOneWALWrite pins that a batch reaches the WAL file in one
// Write, all of it, and survives a reopen.
func TestPutBatchIsOneWALWrite(t *testing.T) {
	dir := t.TempDir()
	var cf *countingFile
	s, err := Open(dir, Options{
		FlushThreshold: 1 << 20,
		walHook: func(f wfile) wfile {
			cf = &countingFile{wfile: f}
			return cf
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys, values := batchOf("b", 64)
	if err := s.PutBatch(kvsOf(keys, values)); err != nil {
		t.Fatal(err)
	}
	if cf.writes != 1 {
		t.Fatalf("a 64-record batch took %d writes, want 1", cf.writes)
	}
	if got, want := int64(len(walBytes(t, dir))), s.EngineStats().WALBytes; got != want {
		t.Fatalf("WAL holds %d bytes, the store appended %d", got, want)
	}
	s.Close()
	s2, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, k := range keys {
		if v, ok, err := s2.Get(k); err != nil || !ok || string(v) != string(values[i]) {
			t.Fatalf("%s after reopen = %q %v %v", k, v, ok, err)
		}
	}
}

// TestPutBatchFailedAppendAppliesNothing tears a batch's append in its
// middle: the call fails, no record of the batch is readable before or
// after a reopen, and the repaired log keeps the next write across a
// second reopen.
func TestPutBatchFailedAppendAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	before := appendRecord(nil, false, "before", []byte("v"))
	keys, values := batchOf("b", 64)
	var batch []byte
	for i, k := range keys {
		batch = appendRecord(batch, false, k, values[i])
	}
	var fp *failpointFile
	s, err := Open(dir, Options{
		FlushThreshold: 1 << 20,
		walHook: func(f wfile) wfile {
			if fp == nil {
				fp = newFailpointFile(f, FailShortWrite, int64(len(before)+len(batch)/2))
				return fp
			}
			return fp.rewrap(f)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("before", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(kvsOf(keys, values)); err == nil {
		t.Fatal("a torn batch append did not fail")
	}
	absent := func(s *Store, when string) {
		t.Helper()
		for _, k := range keys {
			if v, ok, err := s.Get(k); err != nil || ok {
				t.Fatalf("%s: %s = %q %v %v, want absent", when, k, v, ok, err)
			}
		}
	}
	absent(s, "after the failed append")
	if got := int64(len(walBytes(t, dir))); got != int64(len(before)) {
		t.Fatalf("repaired WAL holds %d bytes, want the %d before the batch", got, len(before))
	}
	s.Close()

	s2, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	absent(s2, "after reopen")
	if err := s2.Put("after", []byte("w")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := Open(dir, Options{FlushThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	absent(s3, "after a second reopen")
	for k, want := range map[string]string{"before": "v", "after": "w"} {
		if v, ok, err := s3.Get(k); err != nil || !ok || string(v) != want {
			t.Fatalf("%s after a second reopen = %q %v %v, want %q", k, v, ok, err, want)
		}
	}
}
