package topology

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"tencentrec/internal/tdaccess"
	"tencentrec/internal/tdstore"
)

// TestChaosSoakLosesNothing is the delivery soak: the full CF topology
// runs over a real TDAccess broker and TDStore cluster while a chaos
// goroutine restarts tasks of every component, rebalances bolt
// parallelism live, and injects broker and store faults. On the one
// delivery path — the spout commits each poll once it is emitted, a
// restarted task keeps its queue, and the store holds the state (§3.1,
// §3.3) — the item counts must stay EXACTLY equal to the sequential
// library's (zero lost actions, zero double counts), and the topology
// must still quiesce on its own.
//
// Fault orchestration rules (what a crash inside one process cannot
// recover, DESIGN.md §11):
//   - the combiner is disabled: a crash-restarted combiner bolt loses its
//     buffered deltas, with or without an acker (combiner on, 3 of 5 runs
//     of this schedule ended 11 to 23 of the 24 item counts short);
//   - store faults are healed one at a time within the client's retry
//     budget, so bolts never return execute errors;
//   - the two config servers are never down simultaneously.
func TestChaosSoakLosesNothing(t *testing.T) {
	broker, err := tdaccess.NewBroker(tdaccess.Options{Dir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	cluster, err := tdstore.NewCluster(tdstore.Options{DataServers: 3, Instances: 12, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	const items = 24
	actions := genActions(59, 6000, 30, items)
	prod := broker.NewProducer()
	for _, a := range actions {
		if _, _, err := prod.Send("user-actions", a.User, EncodeAction(a)); err != nil {
			t.Fatal(err)
		}
	}

	p := Params{
		FlushInterval:   time.Hour,
		DisableCombiner: true,
	}
	spout := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker:          broker,
		Topic:           "user-actions",
		Group:           "chaos",
		StopWhenDrained: true,
		PollBatch:       64,
		IdleSleep:       500 * time.Microsecond,
	})
	topo, err := NewBuilder("chaos", spout, client, p).
		WithParallelism(Parallelism{Spout: 2, Pretreatment: 2, UserHistory: 3, ItemCount: 2, PairCount: 2, Storage: 2}).
		WithFeatures(Features{CF: true}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	// Transient component errors are tolerated by design — the exactness
	// assertion below is the real check.
	h := topo.SubmitWithErrorHandler(func(c string, err error) {
		t.Logf("component %s: %v", c, err)
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		restart := func(c string, i int) {
			// Errors only mean the topology already quiesced.
			if err := h.RestartTask(c, i); err != nil {
				t.Logf("restart %s/%d: %v", c, i, err)
			}
		}
		pause := func() { time.Sleep(2 * time.Millisecond) }
		broker.KillMasterActive() // the standby serves for the whole run
		for round := 0; round < 3; round++ {
			restart(UnitSpout, round%2)
			pause()
			restart(UnitPretreatment, round%2)
			restart(UnitUserHistory, round%3)
			pause()
			restart(UnitItemCount, round%2)
			restart(UnitPairCount, round%2)
			restart(UnitResultStorage, round%2)
			restart(UnitDB, 0)
			pause()

			// Live rebalances mid-chaos: the elastic data plane must keep
			// the exactness guarantee through task-set swaps too. Errors
			// only mean the topology already quiesced.
			if err := h.Rebalance(UnitUserHistory, 2+round%2); err != nil {
				t.Logf("rebalance %s: %v", UnitUserHistory, err)
			}
			if err := h.Rebalance(UnitItemCount, 1+(round+1)%3); err != nil {
				t.Logf("rebalance %s: %v", UnitItemCount, err)
			}
			pause()

			// Broker data-server blip: spout polls error and back off
			// until the revive.
			bs := round % 2
			if err := broker.KillDataServer(bs); err != nil {
				t.Errorf("broker kill %d: %v", bs, err)
			}
			pause()
			if err := broker.ReviveDataServer(bs); err != nil {
				t.Errorf("broker revive %d: %v", bs, err)
			}

			// Store failover: one data server at a time, fully healed
			// (revived and re-synced) before the next fault.
			ds := fmt.Sprintf("ds-%d", round%3)
			if err := cluster.KillDataServer(ds); err != nil {
				t.Errorf("kill %s: %v", ds, err)
			}
			pause()
			if err := cluster.ReviveDataServer(ds); err != nil {
				t.Errorf("revive %s: %v", ds, err)
			}
			cluster.WaitSync()

			// Config-plane blip; the backup keeps serving routes.
			cluster.KillConfigHost()
			time.Sleep(time.Millisecond)
			cluster.ReviveConfigHost()
		}
	}()

	select {
	case <-h.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("chaos soak did not quiesce within 120s")
	}
	wg.Wait()
	cluster.WaitSync()

	// Every restart must have handed its queue to the fresh instance:
	// nothing discarded anywhere.
	for name, c := range h.Metrics().Components {
		if c.Dropped != 0 {
			t.Errorf("component %s dropped %d tuples", name, c.Dropped)
		}
	}

	// Zero lost actions: the store's item counts equal the sequential
	// library's, exactly, despite restarts, rebalances and failovers.
	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	for i := 0; i < items; i++ {
		item := fmt.Sprintf("i%d", i)
		got := readStateCounter(t, client, prefixItemCount+item, 0, 0)
		want := cf.ItemCount(item, now)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("itemCount(%s) = %v, library %v", item, got, want)
		}
	}
}
