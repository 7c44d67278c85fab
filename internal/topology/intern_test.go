package topology

import (
	"strconv"
	"testing"
	"unsafe"
)

// pairID is the interner's pair built by concatenation: the reference the
// tests key item pairs with.
func pairID(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x1f" + b
}

// combKey is the interner's comb built by concatenation.
func combKey(key string, session int64) string {
	return key + "@" + strconv.FormatInt(session, 10)
}

func TestInternerShapes(t *testing.T) {
	in := newInterner(0)
	if got := in.key2("uh:", "alice"); got != "uh:alice" {
		t.Fatalf("key2 = %q", got)
	}
	if got, want := in.pairBytes("b", []byte("a")), pairID("b", "a"); got != want {
		t.Fatalf("pairBytes = %q want %q", got, want)
	}
	if got, want := in.pairBytes("a", []byte("b")), pairID("a", "b"); got != want {
		t.Fatalf("pairBytes = %q want %q", got, want)
	}
	if got := in.joined("g", "i"); got != "g\x1fi" {
		t.Fatalf("joined = %q", got)
	}
	if got, want := in.comb("k", 42), combKey("k", 42); got != want {
		t.Fatalf("comb = %q want %q", got, want)
	}
	if got, want := in.combJoined("g", "i", 7), combKey("g\x1fi", 7); got != want {
		t.Fatalf("combJoined = %q want %q", got, want)
	}
}

// TestInternerCanonical checks the point of interning: the same logical
// key always comes back as the same string header, so map lookups and
// key slices stop allocating.
func TestInternerCanonical(t *testing.T) {
	in := newInterner(0)
	a := in.key2("ic:", "item-1")
	b := in.key2("ic:", "item-1")
	// Same backing pointer, not just equal contents.
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("interned keys not canonicalized to one allocation")
	}
}

func TestInternerBounded(t *testing.T) {
	in := newInterner(8)
	for i := 0; i < 100; i++ {
		in.comb("key", int64(i))
	}
	if len(in.m) > 8 {
		t.Fatalf("interner grew to %d entries, cap 8", len(in.m))
	}
	// Still correct after clears.
	if got := in.key2("p:", "x"); got != "p:x" {
		t.Fatalf("key2 after clear = %q", got)
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
	in.comb(item, 3)
	allocs := testing.AllocsPerRun(200, func() {
		in.key2("ic:", item)
		in.pairBytes(item, other)
		in.comb(item, 3)
	})
	if allocs != 0 {
		t.Fatalf("interner steady state: %v allocs/op, want 0", allocs)
	}
}
