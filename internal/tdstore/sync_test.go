package tdstore

import (
	"fmt"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/tdstore/engine"
)

// TestSyncScratchKeepsBurstsBounded drives a sync loop's scratch the way
// the loop does (the writers fill one queue buffer while the loop drains
// the other, and the two trade places at every drain): a burst's buffers
// serve the next burst of its size, no buffer past maxSpareOps is kept,
// and after quietDrains small drains in a row what the bursts grew is let
// go.
func TestSyncScratchKeepsBurstsBounded(t *testing.T) {
	var sc syncScratch
	var queue []syncOp // the writers' buffer
	drain := func(n int) {
		for i := 0; i < n; i++ {
			queue = append(queue, syncOp{kind: opPut, key: fmt.Sprintf("k%d", i%4000)})
		}
		batch := queue
		queue = sc.spare
		sc.done(batch)
	}
	drain(5000)
	drain(5000)
	if cap(queue) < 5000 || cap(sc.spare) < 5000 {
		t.Fatalf("after two bursts of 5000 the buffers hold %d and %d ops, want both kept", cap(queue), cap(sc.spare))
	}
	drain(maxSpareOps + 1)
	if sc.spare != nil {
		t.Fatalf("kept a queue buffer of %d ops, past maxSpareOps", cap(sc.spare))
	}
	for i := 0; i < quietDrains+2; i++ {
		drain(1)
	}
	if cap(queue) > maxQuietSpareOps || cap(sc.spare) > maxQuietSpareOps {
		t.Fatalf("after %d small drains the buffers hold %d and %d ops, want at most %d", quietDrains+2, cap(queue), cap(sc.spare), maxQuietSpareOps)
	}
}

// replicaGate stalls the sync loops: once armed, a slave write reports on
// entered and waits for release to close.
type replicaGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *replicaGate) wait() {
	if !g.armed.Load() {
		return
	}
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.release
}

// gatedReplica is a slave engine whose writes pass through a replicaGate.
type gatedReplica struct {
	engine.Engine
	g *replicaGate
}

func (r gatedReplica) Put(key string, value []byte) error {
	r.g.wait()
	return r.Engine.Put(key, value)
}

func (r gatedReplica) PutBatch(keys []string, values [][]byte) error {
	r.g.wait()
	return r.Engine.PutBatch(keys, values)
}

func (r gatedReplica) Delete(key string) error {
	r.g.wait()
	return r.Engine.Delete(key)
}

// TestReplicasApplyHostOrder stalls every sync loop in a slave write, so
// that what the test writes next reaches the slaves in one drain per
// server: a key put, deleted and put again, a key put and deleted, single
// Puts and BatchPut runs interleaved across the instances, and a key
// written twice inside one batch. Once the drains are applied, every
// slave engine holds exactly what its host does.
func TestReplicasApplyHostOrder(t *testing.T) {
	const instances = 8
	// entered holds one report per sync loop: two data servers.
	gate := &replicaGate{entered: make(chan struct{}, 2), release: make(chan struct{})}
	hosted := make(map[InstanceID]bool)
	c, cl := newTestCluster(t, Options{
		DataServers: 2,
		Instances:   instances,
		// NewCluster builds an instance's host engine before its slaves'.
		Engine: func(_ string, inst InstanceID) (engine.Engine, error) {
			if !hosted[inst] {
				hosted[inst] = true
				return engine.NewMemory(), nil
			}
			return gatedReplica{engine.NewMemory(), gate}, nil
		},
	})
	released := false
	t.Cleanup(func() { // before the cluster closes: a stalled loop holds Close
		if !released {
			close(gate.release)
		}
	})
	rt, err := c.RouteTable()
	if err != nil {
		t.Fatal(err)
	}

	// One write to an instance of each host stalls that host's sync loop.
	gate.armed.Store(true)
	primed := make(map[string]bool)
	for i := 0; len(primed) < 2; i++ {
		k := fmt.Sprintf("primer-%d", i)
		if host := rt.Hosts[rt.InstanceFor(k)]; !primed[host] {
			primed[host] = true
			if err := cl.Put(k, []byte("p")); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range primed {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatal("a sync loop did not reach its slave write")
		}
	}

	put := func(k, v string) {
		t.Helper()
		if err := cl.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	del := func(k string) {
		t.Helper()
		if err := cl.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	put("again", "first")
	del("again")
	put("again", "second")
	put("gone", "x")
	del("gone")
	seen := make(map[InstanceID]bool)
	for round := 0; round < 4; round++ {
		single := fmt.Sprintf("single-%d", round)
		put(single, "s")
		seen[rt.InstanceFor(single)] = true
		var keys []string
		var vals [][]byte
		for i := 0; i < 12; i++ {
			k := fmt.Sprintf("batch-%d-%d", round, i)
			keys, vals = append(keys, k), append(vals, []byte(fmt.Sprintf("b%d", i)))
			seen[rt.InstanceFor(k)] = true
		}
		keys, vals = append(keys, "twice"), append(vals, []byte(fmt.Sprintf("early-%d", round)))
		keys, vals = append(keys, "twice"), append(vals, []byte(fmt.Sprintf("late-%d", round)))
		if err := cl.BatchPut(keys, vals); err != nil {
			t.Fatal(err)
		}
		del(fmt.Sprintf("batch-%d-0", round))
	}
	if len(seen) < 4 {
		t.Fatalf("the writes fall on %d instances, want at least 4", len(seen))
	}

	close(gate.release)
	released = true
	c.WaitSync()
	contents := func(eng engine.Engine) map[string]string {
		t.Helper()
		m := make(map[string]string)
		if err := eng.Range(func(k string, v []byte) bool {
			m[k] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for inst := InstanceID(0); inst < instances; inst++ {
		host, _ := c.server(rt.Hosts[inst])
		hostEng, ok := host.engineOf(inst)
		if !ok {
			t.Fatalf("host %s lacks instance %d", host.ID, inst)
		}
		want := contents(hostEng)
		for _, id := range rt.Slaves[inst] {
			slave, _ := c.server(id)
			eng, ok := slave.engineOf(inst)
			if !ok {
				t.Fatalf("slave %s lacks instance %d", id, inst)
			}
			if got := contents(eng); !maps.Equal(got, want) {
				t.Fatalf("instance %d: slave %s holds %v, host holds %v", inst, id, got, want)
			}
		}
	}
	for k, want := range map[string]string{"again": "second", "twice": "late-3", "gone": "", "batch-2-0": ""} {
		v, ok, err := cl.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if want == "" && ok || want != "" && string(v) != want {
			t.Fatalf("%s = %q (found %v), want %q", k, v, ok, want)
		}
	}
}
