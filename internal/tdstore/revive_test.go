package tdstore

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/tdstore/engine"
)

// TestReviveDropsKeysDeletedWhileDown: a delete made while a slave is
// down never reaches it (a down server drops replication ops), so the
// revive's catch-up must remove the key from the revived copy rather
// than only copy the keys the host has; otherwise a later failover to
// that copy brings the key back.
func TestReviveDropsKeysDeletedWhileDown(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 2, Instances: 4, Replicas: 1})
	if err := cl.Put("gone", []byte("v")); err != nil {
		t.Fatal(err)
	}
	rt, err := c.RouteTable()
	if err != nil {
		t.Fatal(err)
	}
	inst := rt.InstanceFor("gone")
	host, slave := rt.Hosts[inst], rt.Slaves[inst][0]
	c.WaitSync()
	if err := c.KillDataServer(slave); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	c.WaitSync()
	if err := c.ReviveDataServer(slave); err != nil {
		t.Fatal(err)
	}
	if err := c.KillDataServer(host); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get("gone"); err != nil || ok {
		t.Fatalf("Get(gone) after failover to the revived copy = %q found=%v err=%v, want not found", v, ok, err)
	}
}

// engineContents reads every pair of one engine copy.
func engineContents(t *testing.T, ds *DataServer, inst InstanceID) map[string]string {
	t.Helper()
	eng, ok := ds.engineOf(inst)
	if !ok {
		t.Fatalf("%s lacks instance %d", ds.ID, inst)
	}
	out := make(map[string]string)
	if err := eng.Range(func(kv engine.KV) bool {
		k, v := kv.Split()
		out[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReviveKeepsWritesAcknowledgedDuringCatchUp pins the write fence of
// a revive: a writer puts and deletes through the whole revive, and once
// replication settles every instance's revived copy equals its host's.
// Then the revived server is the last one standing and serves every
// write the writer saw acknowledged.
func TestReviveKeepsWritesAcknowledgedDuringCatchUp(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 3, Instances: 8, Replicas: 2})
	const preload = 20000
	keys := make([]string, preload)
	vals := make([][]byte, preload)
	for i := range keys {
		keys[i] = fmt.Sprintf("rk-%d", i)
		vals[i] = []byte(fmt.Sprintf("v0-%d", i))
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	const victim = "ds-1"
	if err := c.KillDataServer(victim); err != nil {
		t.Fatal(err)
	}

	// The writer overwrites and deletes preloaded keys and adds new ones,
	// recording what each acknowledged operation left: a value, or
	// absence.
	want := make(map[string]string, preload)
	for i, k := range keys {
		want[k] = string(vals[i])
	}
	var stop, reviving atomic.Bool
	var acked, duringRevive atomic.Int64
	done := make(chan error)
	go func() {
		for i := 0; !stop.Load(); i++ {
			k := keys[(i*7919)%preload]
			var err error
			switch i % 3 {
			case 0:
				v := fmt.Sprintf("w-%d", i)
				if err = cl.Put(k, []byte(v)); err == nil {
					want[k] = v
				}
			case 1:
				if err = cl.Delete(k); err == nil {
					want[k] = ""
				}
			default:
				k = fmt.Sprintf("new-%d", i)
				if err = cl.Put(k, []byte(k)); err == nil {
					want[k] = k
				}
			}
			if err != nil {
				done <- err
				return
			}
			if reviving.Load() {
				duringRevive.Add(1)
			}
			acked.Add(1)
		}
		done <- nil
	}()
	// Some writes land while the victim is down, some after it is back.
	awaitAcked := func(n int64) {
		for acked.Load() < n {
			time.Sleep(100 * time.Microsecond)
		}
	}
	awaitAcked(3000)
	reviving.Store(true)
	if err := c.ReviveDataServer(victim); err != nil {
		t.Fatal(err)
	}
	reviving.Store(false)
	awaitAcked(acked.Load() + 3000)
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d writes acknowledged while the revive ran", duringRevive.Load())
	c.WaitSync()

	rt, err := c.RouteTable()
	if err != nil {
		t.Fatal(err)
	}
	revived, _ := c.server(victim)
	for inst := 0; inst < rt.NumInstances; inst++ {
		host, _ := c.server(rt.Hosts[inst])
		hostCopy := engineContents(t, host, InstanceID(inst))
		revivedCopy := engineContents(t, revived, InstanceID(inst))
		if len(hostCopy) != len(revivedCopy) {
			t.Fatalf("instance %d: host %s holds %d keys, revived copy %d", inst, host.ID, len(hostCopy), len(revivedCopy))
		}
		for k, v := range hostCopy {
			if rv, ok := revivedCopy[k]; !ok || rv != v {
				t.Fatalf("instance %d key %s: host %q, revived copy %q (present %v)", inst, k, v, rv, ok)
			}
		}
	}

	for _, ds := range c.Servers() {
		if ds.ID != victim {
			if err := c.KillDataServer(ds.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k, v := range want {
		got, ok, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if v == "" && ok {
			t.Fatalf("%s was deleted, the revived copy holds %q", k, got)
		}
		if v != "" && (!ok || string(got) != v) {
			t.Fatalf("%s = %q found=%v on the revived copy, want %q", k, got, ok, v)
		}
	}
}
