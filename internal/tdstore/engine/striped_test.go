package engine

// White-box tests of the striped MDB engine: key spread over the lock
// stripes and the open-addressing table each stripe keeps. The
// cross-engine behavioural contract lives in conformance_test.go.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tencentrec/internal/keyhash"
)

func TestStripedShardDistribution(t *testing.T) {
	m := NewMemory()
	defer m.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		if err := m.PutKV(MakeKV(fmt.Sprintf("key-%d", i), []byte("v"))); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := range m.stripes {
		sz := m.stripes[i].n
		if sz == 0 {
			t.Errorf("stripe %d holds no keys — striping is not spreading load", i)
		}
		// A hash over distinct keys should land within a few x of the
		// mean; a stripe holding 3x its share means selection is broken.
		if sz > 3*n/stripeCount {
			t.Errorf("stripe %d holds %d keys, > 3x the fair share %d", i, sz, n/stripeCount)
		}
		total += sz
	}
	if total != n {
		t.Fatalf("stripes hold %d keys in total, want %d", total, n)
	}
	got, err := m.Len()
	if err != nil || got != n {
		t.Fatalf("Len = %d, %v; want %d", got, err, n)
	}
}

func TestStripedShardSelectionDeterministic(t *testing.T) {
	for _, key := range []string{"", "a", "user:42", "pair:i1:i2"} {
		if a, b := keyhash.String(key), keyhash.String(key); a != b {
			t.Fatalf("keyhash.String(%q) unstable: %d vs %d", key, a, b)
		}
		if s := stripeOf(keyhash.String(key)); s >= stripeCount {
			t.Fatalf("stripeOf(keyhash.String(%q)) = %d out of range", key, s)
		}
	}
}

// routeInstance is the route table's placement of key over instances
// (tdstore.RouteTable.InstanceFor): FNV-1a modulo the instance count.
func routeInstance(key string, instances uint32) uint32 {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h % instances
}

// TestStripesSpreadKeysOfOneInstance fills one engine with keys that the
// default 16-instance route places in one instance, as a data server's
// engine of that instance holds. Every stripe must take some: a stripe
// chosen by bits the route already fixed would put them all in one.
func TestStripesSpreadKeysOfOneInstance(t *testing.T) {
	m := NewMemory()
	defer m.Close()
	for i, n := 0, 0; n < 1024; i++ {
		key := fmt.Sprintf("uh:user-%d", i)
		if routeInstance(key, 16) != 3 {
			continue
		}
		if err := m.PutKV(MakeKV(key, []byte("v"))); err != nil {
			t.Fatal(err)
		}
		n++
	}
	used := 0
	for i := range m.stripes {
		if m.stripes[i].n > 0 {
			used++
		}
	}
	if used != stripeCount {
		t.Fatalf("1,024 keys of one instance occupy %d of %d stripes", used, stripeCount)
	}
}

// checkTable asserts the table's invariants: n counts its occupied slots,
// a slot's word is its key's, every key is found from its home slot
// without crossing an empty one, and keys sit on average within a few
// slots of home (linear probing at 3/4 full averages 1.5), which a home
// slot taken from bits the stripe fixed would not.
func checkTable(t *testing.T, tb *table) {
	t.Helper()
	occupied, displaced := 0, 0
	for i, kv := range tb.kvs {
		if (kv == "") != (tb.words[i] == 0) {
			t.Fatalf("slot %d: KV %q with word %#x", i, kv, tb.words[i])
		}
		if kv == "" {
			continue
		}
		occupied++
		h := keyhash.String(kv.Key())
		if tb.words[i] != wordOf(h) {
			t.Fatalf("slot %d: word %#x, its key's is %#x", i, tb.words[i], wordOf(h))
		}
		if j, ok := tb.find(kv.Key(), h); !ok || j != i {
			t.Fatalf("key %q sits in slot %d but find says %d %v", kv.Key(), i, j, ok)
		}
		displaced += tb.behind(tb.home(wordOf(h)), i)
	}
	if occupied != tb.n {
		t.Fatalf("table counts %d entries, holds %d", tb.n, occupied)
	}
	if tb.n >= 32 && displaced > 4*tb.n {
		t.Fatalf("%d keys sit %d slots from home in all, over 4 each", tb.n, displaced)
	}
	if len(tb.kvs) > 0 && 4*tb.n > 3*len(tb.kvs) {
		t.Fatalf("table holds %d entries in %d slots, past 3/4", tb.n, len(tb.kvs))
	}
}

// TestMemoryMatchesMapReference drives one engine and a map[string][]byte
// with the same seeded stream of puts of new keys, overwrites, deletes
// and gets, through several doublings of every stripe's table and back
// down, and compares Get, Len and Range with the map as it goes. The key
// space is small enough that deletes often land inside a probe run (a
// slot with an occupied successor), the case backward-shift deletion
// must get right; the test counts them.
func TestMemoryMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	m := NewMemory()
	defer m.Close()
	ref := make(map[string][]byte)
	const keySpace = 6000
	key := func() string { return fmt.Sprintf("k%d", rng.Intn(keySpace)) }
	compare := func(step int) {
		t.Helper()
		n, err := m.Len()
		if err != nil || n != len(ref) {
			t.Fatalf("step %d: Len = %d, %v; the map holds %d", step, n, err, len(ref))
		}
		seen := make(map[string]bool, n)
		if err := m.Range(func(kv KV) bool {
			k, v := kv.Split()
			if seen[k] {
				t.Fatalf("step %d: Range yields %q twice", step, k)
			}
			seen[k] = true
			if want, ok := ref[k]; !ok || string(want) != v {
				t.Fatalf("step %d: Range yields %q = %q, the map holds %q %v", step, k, v, want, ok)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(ref) {
			t.Fatalf("step %d: Range yields %d keys, the map holds %d", step, len(seen), len(ref))
		}
		for i := range m.stripes {
			checkTable(t, &m.stripes[i].table)
		}
	}
	var growths, chainDeletes int
	slots := func() (total int) {
		for i := range m.stripes {
			total += len(m.stripes[i].kvs)
		}
		return total
	}
	// Three phases: fill to most of the key space, churn at that size,
	// then delete down to a few keys.
	for step := 0; step < 60000; step++ {
		k := key()
		var putShare, delShare int
		switch {
		case step < 20000:
			putShare, delShare = 70, 10
		case step < 40000:
			putShare, delShare = 40, 30
		default:
			putShare, delShare = 5, 70
		}
		before := slots()
		switch r := rng.Intn(100); {
		case r < putShare:
			v := fmt.Appendf(nil, "v%d-%d", step, rng.Intn(1000))
			if err := m.PutKV(MakeKV(k, v)); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		case r < putShare+delShare:
			h := keyhash.String(k)
			tb := &m.stripes[stripeOf(h)].table
			if tb.n > 0 {
				if i, ok := tb.find(k, h); ok && tb.words[tb.next(i)] != 0 {
					chainDeletes++
				}
			}
			if err := m.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		default:
			got, ok, err := m.Get(k)
			want, wok := ref[k]
			if err != nil || ok != wok || string(got) != string(want) {
				t.Fatalf("step %d: Get(%s) = %q %v %v, the map holds %q %v", step, k, got, ok, err, want, wok)
			}
		}
		if slots() != before {
			growths++
		}
		if step%2000 == 1999 {
			compare(step)
		}
	}
	compare(60000)
	if growths < 4*stripeCount {
		t.Fatalf("tables grew %d times, want at least 4 per stripe", growths)
	}
	if chainDeletes < 1000 {
		t.Fatalf("%d deletes inside a probe run, want at least 1,000", chainDeletes)
	}
	// Every stored value is the one last put, key by key.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got, ok, err := m.Get(k); err != nil || !ok || string(got) != string(ref[k]) {
			t.Fatalf("Get(%s) = %q %v %v, want %q", k, got, ok, err, ref[k])
		}
	}
}

func TestKVSplit(t *testing.T) {
	if k, v := KV("").Split(); k != "" || v != "" {
		t.Fatalf(`KV("") splits into %q and %q`, k, v)
	}
	for _, c := range []struct{ key, value string }{
		{"", ""},
		{"k", ""},
		{"", "v"},
		{"uh:42", "history bytes"},
		{string(make([]byte, 127)), "x"},
		{string(make([]byte, 128)), "y"},
		{string(make([]byte, 20000)), "z"},
	} {
		kv := MakeKV(c.key, []byte(c.value))
		if kv == "" {
			t.Fatalf("MakeKV(%q, %q) is empty", c.key, c.value)
		}
		k, v := kv.Split()
		if k != c.key || v != c.value || kv.Key() != c.key || kv.Value() != c.value {
			t.Fatalf("MakeKV(%d-byte key, %q) splits into a %d-byte key and %q", len(c.key), c.value, len(k), v)
		}
		if want := uvarintLen(uint64(len(c.key))) + len(c.key) + len(c.value); len(kv) != want {
			t.Fatalf("MakeKV(%d-byte key, %q) is %d bytes, want %d", len(c.key), c.value, len(kv), want)
		}
	}
}
