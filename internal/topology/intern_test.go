package topology

import (
	"strconv"
	"testing"
	"testing/quick"
	"unsafe"

	"tencentrec/internal/keyhash"
	"tencentrec/internal/tdstore"
)

// pairID is the interner's pair built by concatenation: the reference the
// tests key item pairs with.
func pairID(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x1f" + b
}

func TestInternerShapes(t *testing.T) {
	in := newInterner(0)
	if got, h := in.key2("uh:", "alice"); got != "uh:alice" || h != keyhash.String(got) {
		t.Fatalf("key2 = %q, %#x", got, h)
	}
	if got, want := in.pairBytes("b", []byte("a")), pairID("b", "a"); got != want {
		t.Fatalf("pairBytes = %q want %q", got, want)
	}
	if got, want := in.pairBytes("a", []byte("b")), pairID("a", "b"); got != want {
		t.Fatalf("pairBytes = %q want %q", got, want)
	}
	if got, h := in.key3("gc:", "g", "i"); got != "gc:g\x1fi" || h != keyhash.String(got) {
		t.Fatalf("key3 = %q, %#x", got, h)
	}
}

// TestInternerCanonical checks the point of interning: the same logical
// key always comes back as the same string header, so map lookups and
// key slices stop allocating.
func TestInternerCanonical(t *testing.T) {
	in := newInterner(0)
	a, _ := in.key2("ic:", "item-1")
	b, _ := in.key2("ic:", "item-1")
	// Same backing pointer, not just equal contents.
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("interned keys not canonicalized to one allocation")
	}
}

func TestInternerBounded(t *testing.T) {
	in := newInterner(8)
	for i := 0; i < 100; i++ {
		in.key2("key@", strconv.Itoa(i))
	}
	if len(in.strs) > 8 {
		t.Fatalf("interner grew to %d entries, cap 8", len(in.strs))
	}
	// Still correct after clears.
	if got, h := in.key2("p:", "x"); got != "p:x" || h != keyhash.String("p:x") {
		t.Fatalf("key2 after clear = %q, %#x", got, h)
	}
}

// TestInternerZeroAlloc is the zero-alloc gate for steady-state key
// construction: once a key is interned, rebuilding it is lookup-only.
func TestInternerZeroAlloc(t *testing.T) {
	in := newInterner(0)
	item := "item-abc"
	other := []byte("item-xyz")
	in.key2("ic:", item)
	in.pairBytes(item, other)
	in.key3("gc:", "g", item)
	allocs := testing.AllocsPerRun(200, func() {
		in.key2("ic:", item)
		in.pairBytes(item, other)
		in.key3("gc:", "g", item)
	})
	if allocs != 0 {
		t.Fatalf("interner steady state: %v allocs/op, want 0", allocs)
	}
}

// TestInternedKeyRoutesAsInstanceFor: the keyhash an interner hands out
// places its key where the store's route by key places it, so a key the
// pipeline writes by hash is where a restored checkpoint or a serving
// read by key looks for it.
func TestInternedKeyRoutesAsInstanceFor(t *testing.T) {
	in := newInterner(16)
	f := func(prefix, a, b string, instances uint8) bool {
		rt := tdstore.RouteTable{NumInstances: 1 + int(instances)}
		k2, h2 := in.key2(prefix, a)
		k3, h3 := in.key3(prefix, a, b)
		n := uint32(rt.NumInstances)
		return rt.InstanceFor(k2) == tdstore.InstanceID(keyhash.Route(h2)%n) &&
			rt.InstanceFor(k3) == tdstore.InstanceID(keyhash.Route(h3)%n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHashedWritesReadBackByKey writes interned keys through a store
// client's hashed path and reads them back by key, the serving tier's
// path, and the reverse.
func TestHashedWritesReadBackByKey(t *testing.T) {
	cluster, err := tdstore.NewCluster(tdstore.Options{Instances: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	in := newInterner(0)
	for i := 0; i < 500; i++ {
		k, h := in.key2("uh:", strconv.Itoa(i))
		if err := client.PutHashed(k, h, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := client.Get(k); err != nil || !ok || string(v) != k {
			t.Fatalf("Get(%q) after PutHashed = %q %v %v", k, v, ok, err)
		}
		k2, h2 := in.key2("ic:", strconv.Itoa(i))
		if err := client.Put(k2, []byte(k2)); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := client.GetHashed(k2, h2); err != nil || !ok || string(v) != k2 {
			t.Fatalf("GetHashed(%q) after Put = %q %v %v", k2, v, ok, err)
		}
	}
}
