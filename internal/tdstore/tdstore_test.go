package tdstore

import (
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"tencentrec/internal/statecodec"
	"tencentrec/internal/tdstore/engine"
	"tencentrec/internal/tdstore/engine/ldb"
)

func newTestCluster(t *testing.T, opts Options) (*Cluster, *Client) {
	t.Helper()
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	cl, err := c.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	return c, cl
}

func TestClientBasicOps(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	if err := cl.Put("user:1", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get("user:1")
	if err != nil || !ok || string(v) != "alice" {
		t.Fatalf("Get = %q %v %v", v, ok, err)
	}
	if err := cl.Delete("user:1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get("user:1"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestKeysSpreadAcrossInstances(t *testing.T) {
	c, cl := newTestCluster(t, Options{Instances: 16})
	for i := 0; i < 500; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Every instance should store some data.
	for inst, in := range c.instances {
		n, err := in.eng.Len()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatalf("instance %d stores no keys", inst)
		}
	}
}

func TestClusterWithLDBEngine(t *testing.T) {
	dir := t.TempDir()
	_, cl := newTestCluster(t, Options{
		Instances: 4,
		Engine: func(inst InstanceID) (engine.Engine, error) {
			return ldb.Open(InstanceDir(dir, int(inst)), ldb.Options{FlushThreshold: 32})
		},
	})
	for i := 0; i < 100; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok, err := cl.Get(fmt.Sprintf("key-%d", i)); !ok || err != nil {
			t.Fatalf("Get(key-%d) with LDB engine: %v %v", i, ok, err)
		}
	}
}

func TestFloatCodecRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		got, err := statecodec.DecodeFloat(statecodec.EncodeFloat(v))
		return err == nil && (got == v || (v != v && got != got)) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFloatRejectsBadLength(t *testing.T) {
	if _, err := statecodec.DecodeFloat([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeFloat accepted a 3-byte value")
	}
}

// TestInstanceForMatchesFNVReference pins the inlined routing hash to
// the hash/fnv + Fprint form it replaced: placement of existing keys
// (including on-disk LDB/FDB deployments) must not move.
func TestInstanceForMatchesFNVReference(t *testing.T) {
	rt := &RouteTable{NumInstances: 16}
	ref := func(key string) InstanceID {
		h := fnv.New32a()
		fmt.Fprint(h, key)
		return InstanceID(h.Sum32() % uint32(rt.NumInstances))
	}
	for _, key := range []string{"", "a", "user:1", "pair:i1:i2", "ctr:view:i9"} {
		if got, want := rt.InstanceFor(key), ref(key); got != want {
			t.Fatalf("InstanceFor(%q) = %d, reference %d", key, got, want)
		}
	}
	f := func(key string) bool { return rt.InstanceFor(key) == ref(key) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRouteTableDeterministicProperty(t *testing.T) {
	rt := &RouteTable{NumInstances: 16}
	f := func(key string) bool {
		a := rt.InstanceFor(key)
		b := rt.InstanceFor(key)
		return a == b && int(a) < rt.NumInstances && a >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
