package tdstore

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"tencentrec/internal/tdstore/engine"
)

// TestStoredValueIsOneSharedCopy pins who copies a value: the client
// builds one KV per written version, and the engine keeps that KV (MDB's
// Range hands out the KV it keeps, so this is visible), not the caller's
// buffer. Whatever a Get returns is the caller's: editing it changes
// nothing stored.
func TestStoredValueIsOneSharedCopy(t *testing.T) {
	c, cl := newTestCluster(t, Options{Instances: 8})
	want := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
	keys := make([]string, 50)
	vals := make([][]byte, len(keys))
	for i := range keys {
		keys[i], vals[i] = fmt.Sprintf("own-%d", i), want(i)
	}
	if err := cl.Put(keys[0], vals[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.BatchPut(keys[1:], vals[1:]); err != nil {
		t.Fatal(err)
	}
	// stored returns the KV the engine keeps under key.
	stored := func(eng engine.Engine, key string) engine.KV {
		t.Helper()
		var kept engine.KV
		eng.Range(func(kv engine.KV) bool {
			if kv.Key() == key {
				kept = kv
			}
			return kept == ""
		})
		if kept == "" {
			t.Fatalf("the engine keeps nothing under %s", key)
		}
		return kept
	}
	for i, key := range keys {
		eng := c.instances[c.route.InstanceFor(key)].eng
		kept := stored(eng, key)
		if kept.Value() != string(want(i)) {
			t.Fatalf("the engine keeps %q under %s, want %q", kept.Value(), key, want(i))
		}
		// The KV is a string of its own: its bytes are not the caller's
		// value buffer, nor at any offset inside it.
		start := uintptr(unsafe.Pointer(unsafe.SliceData(vals[i])))
		if p := uintptr(unsafe.Pointer(unsafe.StringData(string(kept)))); p >= start && p < start+uintptr(cap(vals[i])) {
			t.Fatalf("the engine keeps the caller's buffer for %s", key)
		}
		// Edit what Get returns: nothing stored changes.
		got, ok, err := cl.Get(key)
		if err != nil || !ok || !bytes.Equal(got, want(i)) {
			t.Fatalf("Get(%s) = %q %v %v, want %q", key, got, ok, err, want(i))
		}
		for j := range got {
			got[j] = 'Y'
		}
		if kept := stored(eng, key); kept.Value() != string(want(i)) {
			t.Fatalf("editing the Get result of %s changed the stored copy to %q", key, kept.Value())
		}
	}
}
