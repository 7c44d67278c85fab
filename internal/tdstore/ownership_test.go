package tdstore

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"tencentrec/internal/tdstore/engine"
)

// TestStoredValueIsOneSharedCopy pins who copies a value: the client
// builds one KV per written version, and the host's engine and every
// slave's keep that one KV, the same string data (MDB's Range hands out
// the KV it keeps, so the sharing is visible), not the caller's buffer.
// Whatever a Get returns is the caller's: editing it changes no copy.
func TestStoredValueIsOneSharedCopy(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 3, Instances: 8, Replicas: 2})
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
	c.WaitSync()
	rt, err := c.RouteTable()
	if err != nil {
		t.Fatal(err)
	}
	// stored returns the KV a server's engine keeps under key.
	stored := func(id string, key string) engine.KV {
		t.Helper()
		ds, _ := c.server(id)
		eng, ok := ds.engineOf(rt.InstanceFor(key))
		if !ok {
			t.Fatalf("%s lacks the instance of %s", id, key)
		}
		var kept engine.KV
		eng.Range(func(kv engine.KV) bool {
			if kv.Key() == key {
				kept = kv
			}
			return kept == ""
		})
		if kept == "" {
			t.Fatalf("%s keeps nothing under %s", id, key)
		}
		return kept
	}
	// data is where a KV's bytes sit.
	data := func(kv engine.KV) *byte { return unsafe.StringData(string(kv)) }
	for i, key := range keys {
		inst := rt.InstanceFor(key)
		copies := append([]string{rt.Hosts[inst]}, rt.Slaves[inst]...)
		if len(copies) != 3 {
			t.Fatalf("%s has %d copies, want 3", key, len(copies))
		}
		hostKept := stored(copies[0], key)
		if hostKept.Value() != string(want(i)) {
			t.Fatalf("host %s keeps %q under %s, want %q", copies[0], hostKept.Value(), key, want(i))
		}
		// The KV is a string of its own: its bytes are not the caller's
		// value buffer, nor at any offset inside it.
		start := uintptr(unsafe.Pointer(unsafe.SliceData(vals[i])))
		if p := uintptr(unsafe.Pointer(data(hostKept))); p >= start && p < start+uintptr(cap(vals[i])) {
			t.Fatalf("host %s keeps the caller's buffer for %s", copies[0], key)
		}
		for _, id := range copies[1:] {
			if kept := stored(id, key); data(kept) != data(hostKept) {
				t.Fatalf("slave %s keeps %q under %s in a copy of its own, not the host's", id, kept.Value(), key)
			}
		}
		// Edit what Get returns from each copy: no copy changes.
		for _, id := range copies {
			ds, _ := c.server(id)
			eng, _ := ds.engineOf(inst)
			got, ok, err := eng.Get(key)
			if err != nil || !ok || !bytes.Equal(got, want(i)) {
				t.Fatalf("%s: Get(%s) = %q %v %v, want %q", id, key, got, ok, err, want(i))
			}
			for j := range got {
				got[j] = 'Y'
			}
			for _, other := range copies {
				if kept := stored(other, key); kept.Value() != string(want(i)) {
					t.Fatalf("editing %s's Get result of %s changed %s's copy to %q", id, key, other, kept.Value())
				}
			}
		}
	}
}
