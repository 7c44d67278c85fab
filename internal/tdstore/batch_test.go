package tdstore

import (
	"fmt"
	"sync"
	"testing"
)

// allPositions returns 0..n-1: a fresh batch's pending set spelled out,
// where the client passes nil.
func allPositions(n int) []int {
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	return pending
}

func TestBatchPutGetRoundTrip(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16})
	var keys []string
	var vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("bk-%d", i))
		vals = append(vals, []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Mix present and absent keys in one read batch.
	probe := append(append([]string(nil), keys...), "missing-1", "missing-2")
	got, found, err := cl.BatchGet(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || string(got[i]) != string(vals[i]) {
			t.Fatalf("key %s = %q found=%v", keys[i], got[i], found[i])
		}
	}
	for i := len(keys); i < len(probe); i++ {
		if found[i] || got[i] != nil {
			t.Fatalf("absent key %s reported found=%v val=%q", probe[i], found[i], got[i])
		}
	}
	// Batched writes must replicate like single writes.
	c.WaitSync()
}

// TestBatchPutKeepsBatchOrderWithinAnInstance: a batch whose keys
// interleave across instances is applied instance by instance, each
// instance's keys in batch order, so of two writes to one key in a batch
// the later wins, on the host and (the replication ops being queued in the
// same order) on the slave.
func TestBatchPutKeepsBatchOrderWithinAnInstance(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 2, Instances: 8, Replicas: 2})
	var keys []string
	var vals [][]byte
	want := make(map[string]string)
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			k, v := fmt.Sprintf("ok-%d", i), fmt.Sprintf("v-%d", i)
			if i%7 == 0 {
				v = fmt.Sprintf("v-%d-round-%d", i, round) // rewritten every round
			} else if round > 0 {
				continue
			}
			keys, vals = append(keys, k), append(vals, []byte(v))
			want[k] = v
		}
	}
	rt, err := c.RouteTable()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[InstanceID]bool)
	for _, k := range keys {
		seen[rt.InstanceFor(k)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("keys fall on %d instances; the batch does not interleave", len(seen))
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := make([]string, 0, len(want))
	for k := range want {
		probe = append(probe, k)
	}
	check := func(where string, got [][]byte, found []bool) {
		t.Helper()
		for i, k := range probe {
			if !found[i] || string(got[i]) != want[k] {
				t.Fatalf("%s: %s = %q found=%v, want %q", where, k, got[i], found[i], want[k])
			}
		}
	}
	got, found, err := cl.BatchGet(probe)
	if err != nil {
		t.Fatal(err)
	}
	check("host", got, found)
	// Each key's first slave, read from its engine once replication settles.
	c.WaitSync()
	for i, k := range probe {
		inst := rt.InstanceFor(k)
		if len(rt.Slaves[inst]) == 0 {
			t.Fatalf("%s's instance has no slave", k)
		}
		ds, _ := c.server(rt.Slaves[inst][0])
		eng, ok := ds.engineOf(inst)
		if !ok {
			t.Fatalf("slave %s lacks the instance of %s", rt.Slaves[inst][0], k)
		}
		if got[i], found[i], err = eng.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	check("slave", got, found)
}

func TestBatchPutLengthMismatch(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	if err := cl.BatchPut([]string{"a", "b"}, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("BatchPut accepted mismatched lengths")
	}
}

func TestBatchGetReportsMisses(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	if err := cl.Put("present", []byte("v")); err != nil {
		t.Fatal(err)
	}
	vals, found, err := cl.BatchGet([]string{"present", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || string(vals[0]) != "v" {
		t.Fatalf("present key = %q found=%v", vals[0], found[0])
	}
	if found[1] {
		t.Fatal("absent key reported found")
	}
}

// TestBatchSurvivesFailoverWithOneRefresh kills a data server under a
// client holding a stale route: the batched read must succeed after
// refreshing the route table, and the refresh must run per batch, not
// per key.
func TestBatchSurvivesFailoverWithOneRefresh(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16, Replicas: 2})
	var keys []string
	var vals [][]byte
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("fk-%d", i))
		vals = append(vals, []byte{byte(i)})
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	if err := c.KillDataServer("ds-1"); err != nil {
		t.Fatal(err)
	}
	before := c.RouteQueries()
	got, found, err := cl.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || got[i][0] != byte(i) {
			t.Fatalf("key %s lost after failover", keys[i])
		}
	}
	refreshes := c.RouteQueries() - before
	// 300 keys spread over the dead server's instances would have cost
	// ~75 refreshes key-by-key; batching must need only a handful.
	if refreshes > int64(clientRetries) {
		t.Fatalf("batch read cost %d route refreshes, want <= %d", refreshes, clientRetries)
	}
	// Batched writes retry through the new route too.
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
}

// TestBatchPutPartialRetryResendsOnlyFailedSubBatch pins down the batch
// retry contract: when a mid-batch ErrServerDown/ErrNotHost hits one
// server after other servers' sub-batches already applied, the retry
// must re-send ONLY the failed server's sub-batch — never the whole
// batch. Measured by the servers' applied-key counters: across the
// stale-route attempt and the retry, exactly len(keys) + 0 extra keys
// are applied (the failed group's keys count once, on their new host).
func TestBatchPutPartialRetryResendsOnlyFailedSubBatch(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16, Replicas: 2})
	var keys []string
	var vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("pr-%d", i))
		vals = append(vals, []byte{byte(i)})
	}
	// Kill a server AFTER the client cached its route, so the next batch
	// hits the dead server with a stale table.
	if err := c.KillDataServer("ds-1"); err != nil {
		t.Fatal(err)
	}
	staleRT := cl.cachedRoute()
	failed := 0
	for _, k := range keys {
		if staleRT.Hosts[staleRT.InstanceFor(k)] == "ds-1" {
			failed++
		}
	}
	if failed == 0 || failed == len(keys) {
		t.Fatalf("bad fixture: %d of %d keys on the dead server", failed, len(keys))
	}

	appliedBefore := int64(0)
	for _, ds := range c.Servers() {
		appliedBefore += ds.batchPutKeys.Load()
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	appliedAfter := int64(0)
	for _, ds := range c.Servers() {
		appliedAfter += ds.batchPutKeys.Load()
	}
	applied := appliedAfter - appliedBefore
	// Re-sending the whole batch on retry would apply ~2x len(keys).
	if applied != int64(len(keys)) {
		t.Fatalf("retry applied %d keys in total, want exactly %d (failed sub-batch was %d keys)",
			applied, len(keys), failed)
	}
	// And the data must be intact.
	got, found, err := cl.BatchGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || got[i][0] != byte(i) {
			t.Fatalf("key %s lost across partial retry", keys[i])
		}
	}
}

// TestBatchConcurrentWithFailover exercises the batch paths under -race:
// concurrent batch readers and writers while a server dies and revives.
func TestBatchConcurrentWithFailover(t *testing.T) {
	c, cl := newTestCluster(t, Options{DataServers: 4, Instances: 16, Replicas: 2})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]string, 40)
			vals := make([][]byte, 40)
			for i := range keys {
				keys[i] = fmt.Sprintf("cw-%d-%d", w, i)
				vals[i] = []byte{byte(i)}
			}
			for round := 0; round < 20; round++ {
				if err := cl.BatchPut(keys, vals); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := cl.BatchGet(keys); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	if err := c.KillDataServer("ds-2"); err != nil {
		t.Fatal(err)
	}
	if err := c.ReviveDataServer("ds-2"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
