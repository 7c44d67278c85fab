package tdstore

import (
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"testing/quick"
	"time"

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

// getFloat reads the float64 counter IncrFloat keeps at key; absent keys
// read as zero.
func getFloat(cl *Client, key string) (float64, error) {
	v, ok, err := cl.Get(key)
	if err != nil || !ok {
		return 0, err
	}
	return statecodec.DecodeFloat(v)
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
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16})
	for i := 0; i < 500; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitSync()
	// Every data server should host some instances and store some data.
	for _, ds := range c.Servers() {
		if ds.HostedCount() == 0 {
			t.Fatalf("server %s hosts no instances", ds.ID)
		}
		if ds.InstanceCount() <= ds.HostedCount() {
			t.Fatalf("server %s has no slave instances (fine-grained backup missing)", ds.ID)
		}
	}
}

func TestIncrFloat(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	v, err := cl.IncrFloat("count:item1", 2.5)
	if err != nil || v != 2.5 {
		t.Fatalf("IncrFloat = %v %v", v, err)
	}
	v, err = cl.IncrFloat("count:item1", -0.5)
	if err != nil || v != 2.0 {
		t.Fatalf("IncrFloat = %v %v", v, err)
	}
	got, err := getFloat(cl, "count:item1")
	if err != nil || got != 2.0 {
		t.Fatalf("GetFloat = %v %v", got, err)
	}
	if zero, err := getFloat(cl, "count:absent"); err != nil || zero != 0 {
		t.Fatalf("GetFloat(absent) = %v %v", zero, err)
	}
}

func TestIncrFloatConcurrent(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 3, Instances: 8})
	var wg sync.WaitGroup
	const goroutines, perG = 8, 250
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := cl.IncrFloat("hot", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.WaitSync()
	got, err := getFloat(cl, "hot")
	if err != nil || got != goroutines*perG {
		t.Fatalf("counter = %v %v, want %d", got, err, goroutines*perG)
	}
}

func TestFailoverPromotesSlave(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16, Replicas: 2})
	for i := 0; i < 200; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	rtBefore, _ := c.RouteTable()

	if err := c.KillDataServer("ds-0"); err != nil {
		t.Fatal(err)
	}
	rtAfter, _ := c.RouteTable()
	if rtAfter.Version <= rtBefore.Version {
		t.Fatal("route version did not advance after failover")
	}
	for _, h := range rtAfter.Hosts {
		if h == "ds-0" {
			t.Fatal("dead server still hosts an instance")
		}
	}
	// Every key must still be readable through the same client (it will
	// refresh its stale route on the first ErrServerDown).
	for i := 0; i < 200; i++ {
		v, ok, err := cl.Get(fmt.Sprintf("key-%d", i))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(key-%d) after failover = %q %v %v", i, v, ok, err)
		}
	}
	// And writable.
	if err := cl.Put("post-failover", []byte("yes")); err != nil {
		t.Fatal(err)
	}
}

func TestReviveRejoinsAsSlave(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 3, Instances: 9, Replicas: 1})
	for i := 0; i < 90; i++ {
		cl.Put(fmt.Sprintf("key-%d", i), []byte("v1"))
	}
	if err := c.KillDataServer("ds-1"); err != nil {
		t.Fatal(err)
	}
	// Writes continue while ds-1 is dead.
	for i := 0; i < 90; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ReviveDataServer("ds-1"); err != nil {
		t.Fatal(err)
	}
	c.WaitSync()
	ds1, _ := c.server("ds-1")
	if ds1.HostedCount() != 0 {
		t.Fatalf("revived server hosts %d instances, want 0 (slave only)", ds1.HostedCount())
	}
	// The revived replica must have caught up: check its engine copies.
	rt, _ := c.RouteTable()
	for i := 0; i < 90; i++ {
		key := fmt.Sprintf("key-%d", i)
		inst := rt.InstanceFor(key)
		eng, resident := ds1.engineOf(inst)
		if !resident {
			continue
		}
		v, ok, err := eng.Get(key)
		if err != nil || !ok || string(v) != "v2" {
			t.Fatalf("replica copy of %s = %q %v %v, want v2", key, v, ok, err)
		}
	}
}

func TestConfigHostFailover(t *testing.T) {
	c, cl := newTestCluster(t, Options{})
	c.KillConfigHost()
	// Route table service must continue via the backup config server.
	if _, err := c.RouteTable(); err != nil {
		t.Fatalf("RouteTable after config host failure: %v", err)
	}
	if err := cl.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationPropagates(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 2, Instances: 4, Replicas: 1})
	cl.Put("k", []byte("v"))
	c.WaitSync()
	rt, _ := c.RouteTable()
	inst := rt.InstanceFor("k")
	slaveID := rt.Slaves[inst][0]
	slave, _ := c.server(slaveID)
	eng, _ := slave.engineOf(inst)
	v, ok, err := eng.Get("k")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("slave copy = %q %v %v", v, ok, err)
	}
}

func TestClusterWithLDBEngine(t *testing.T) {
	dir := t.TempDir()
	c, cl := newTestCluster(t, Options{
		DataServers: 2,
		Instances:   4,
		Engine: func(serverID string, inst InstanceID) (engine.Engine, error) {
			return ldb.Open(fmt.Sprintf("%s/%s-%d", dir, serverID, inst), ldb.Options{FlushThreshold: 32})
		},
	})
	for i := 0; i < 100; i++ {
		if err := cl.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.WaitSync()
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

func TestReviveConfigHostRestoresService(t *testing.T) {
	c, _ := newTestCluster(t, Options{})
	c.KillConfigHost()
	c.KillConfigBackup()
	if _, err := c.RouteTable(); err == nil {
		t.Fatal("RouteTable succeeded with both config servers down")
	}
	c.ReviveConfigHost()
	if _, err := c.RouteTable(); err != nil {
		t.Fatalf("RouteTable after ReviveConfigHost: %v", err)
	}
	c.KillConfigHost()
	c.ReviveConfigBackup()
	if _, err := c.RouteTable(); err != nil {
		t.Fatalf("RouteTable after ReviveConfigBackup: %v", err)
	}
}

func TestRouteRefreshRidesOutConfigOutage(t *testing.T) {
	// A data-server failover while BOTH config servers are momentarily
	// down: the client's first route refresh fails against the dead
	// pair, but the bounded retry loop outlasts the outage and the
	// operation completes instead of surfacing an error.
	c, cl := newTestCluster(t, Options{DataServers: 3, Instances: 9, Replicas: 2})
	if err := cl.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Find and kill the server hosting k, so the client's cached route
	// is stale and the next Get must refresh.
	_, inst, err := cl.hostFor("k")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := c.RouteTable()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.KillDataServer(rt.Hosts[inst]); err != nil {
		t.Fatal(err)
	}
	c.KillConfigHost()
	c.KillConfigBackup()
	go func() {
		time.Sleep(2 * time.Millisecond)
		c.ReviveConfigHost()
	}()
	v, ok, err := cl.Get("k")
	if err != nil {
		t.Fatalf("Get during config outage: %v", err)
	}
	if !ok || string(v) != "v1" {
		t.Fatalf("Get = %q ok=%v, want v1", v, ok)
	}
}
