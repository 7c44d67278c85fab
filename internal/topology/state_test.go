package topology

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"tencentrec/internal/keyhash"
	"tencentrec/internal/tdstore"
)

// TestStateValueOwnership runs the ownership rule written on State
// against both implementations: a store keeps nothing the caller passed
// to Put/BatchPut (bolts patch and reuse those buffers), and hands out
// nothing it keeps from Get/BatchGet (bolts edit what they read in
// place).
func TestStateValueOwnership(t *testing.T) {
	cluster, err := tdstore.NewCluster(tdstore.Options{Instances: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster.Close() })
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	impls := []struct {
		name string
		st   State
	}{
		{name: "MemState", st: NewMemState()},
		{name: "tdstore.Client", st: client},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			st := impl.st
			const n = 40
			want := func(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }
			orig := make([]string, n)
			for i := range orig {
				orig[i] = fmt.Sprintf("own-%d", i)
			}
			// Writes: key 0 through Put, the rest through one BatchPut; then
			// the caller reuses every buffer it passed.
			keys := append([]string(nil), orig...)
			vals := make([][]byte, n)
			for i := range vals {
				vals[i] = want(i)
			}
			if err := st.PutHashed(keys[0], keyhash.String(keys[0]), vals[0]); err != nil {
				t.Fatal(err)
			}
			if err := st.BatchPutHashed(keys[1:], keyhash.Strings(keys[1:]), vals[1:]); err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				for j := range vals[i] {
					vals[i][j] = 'X'
				}
				keys[i], vals[i] = "reused", nil
			}
			check := func(when string, got [][]byte, found []bool) {
				t.Helper()
				for i := range orig {
					if !found[i] || !bytes.Equal(got[i], want(i)) {
						t.Fatalf("%s: %s = %q found=%v, want %q", when, orig[i], got[i], found[i], want(i))
					}
				}
			}
			got, found, err := st.BatchGet(orig)
			if err != nil {
				t.Fatal(err)
			}
			check("after the caller reused its Put/BatchPut buffers", got, found)
			// Reads: the caller scribbles over what BatchGet and Get returned.
			one, ok, err := st.Get(orig[0])
			if err != nil || !ok {
				t.Fatalf("Get(%s) = found %v, %v", orig[0], ok, err)
			}
			for _, v := range append(got, one) {
				for j := range v {
					v[j] = 'Y'
				}
			}
			got, found, err = st.BatchGet(orig)
			if err != nil {
				t.Fatal(err)
			}
			check("after the caller edited the slices Get/BatchGet returned", got, found)
			if one, _, _ = st.Get(orig[0]); !bytes.Equal(one, want(0)) {
				t.Fatalf("Get(%s) = %q after the caller edited a returned slice, want %q", orig[0], one, want(0))
			}
		})
	}
}

// TestMemStateKeepsItsOwnKeys: a stored key is the store's own string, not
// the caller's, through a first write, a rewrite of the same length and
// one that changes it: a caller's key may be a slice of a larger string
// (PairCountBolt builds an interval's pc: keys into one).
func TestMemStateKeepsItsOwnKeys(t *testing.T) {
	keys := "pc:a\x1fbpc:a\x1fc"
	a, b := keys[:7], keys[7:]
	st := NewMemState()
	for _, v := range []string{"1", "2", "33"} {
		if err := st.Put(a, []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := st.BatchPutHashed([]string{b}, []uint64{keyhash.String(b)}, [][]byte{[]byte(v)}); err != nil {
			t.Fatal(err)
		}
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(keys)))
	for i := range st.shards {
		for k, v := range st.shards[i].m {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p >= base && p < base+uintptr(len(keys)) {
				t.Fatalf("stored key %q shares the caller's string", k)
			}
			if string(v) != "33" {
				t.Fatalf("%q = %q, want the last write", k, v)
			}
		}
	}
	if n := storedKeys(st); n != 2 {
		t.Fatalf("%d keys, want 2", n)
	}
}

// storedKeys returns the number of keys st holds.
func storedKeys(st *MemState) int {
	n := 0
	for i := range st.shards {
		st.shards[i].mu.RLock()
		n += len(st.shards[i].m)
		st.shards[i].mu.RUnlock()
	}
	return n
}
