package topology

import (
	"fmt"
	"math"
	"testing"
	"time"

	"tencentrec/internal/tdaccess"
	"tencentrec/internal/tdstore"
)

// TestFullStackTDAccessToTDStore runs the complete production path of
// Fig. 9: producers publish raw actions into TDAccess, the topology
// (TDProcess) consumes them through a TDAccess spout, keeps its status
// data in a real TDStore cluster, and the serving engine answers from
// that cluster.
func TestFullStackTDAccessToTDStore(t *testing.T) {
	broker, err := tdaccess.NewBroker(tdaccess.Options{Dir: t.TempDir(), Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()

	cluster, err := tdstore.NewCluster(tdstore.Options{Instances: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client, err := cluster.NewClient()
	if err != nil {
		t.Fatal(err)
	}

	// Publish a clustered action stream keyed by user, preserving
	// per-user order.
	actions := genActions(41, 1200, 25, 20)
	prod := broker.NewProducer()
	for _, a := range actions {
		if _, _, err := prod.Send("user-actions", a.User, EncodeAction(a)); err != nil {
			t.Fatal(err)
		}
	}

	p := Params{FlushInterval: time.Hour}
	spout := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker:          broker,
		Topic:           "user-actions",
		Group:           "tencentrec",
		StopWhenDrained: true,
	})
	topo, err := NewBuilder("prod", spout, client, p).
		WithParallelism(Parallelism{Spout: 2, UserHistory: 3, ItemCount: 2, PairCount: 2, Storage: 2}).
		WithFeatures(Features{CF: true}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.RunWithErrorHandler(nil, func(c string, err error) {
		t.Errorf("component %s: %v", c, err)
	}); err != nil {
		t.Fatal(err)
	}

	// Counts must match the sequential library, across brokers, bolts
	// and the store.
	cf := libEngine(p.withDefaults(), actions)
	now := time.Unix(0, actions[len(actions)-1].TS)
	for i := 0; i < 20; i++ {
		item := fmt.Sprintf("i%d", i)
		got := readStateCounter(t, client, prefixItemCount+item, 0, 0)
		want := cf.ItemCount(item, now)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("itemCount(%s) = %v, library %v", item, got, want)
		}
	}

	srv := NewServing(client, p)
	recs, err := srv.RecommendCF("u1", now, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations from the full stack")
	}
}

// TestFullStackReplay checks TDAccess's disk cache serving a second,
// late-joining consumer group: an "offline computation" replaying the
// full history (§3.2) rebuilds identical state from scratch.
func TestFullStackReplay(t *testing.T) {
	broker, err := tdaccess.NewBroker(tdaccess.Options{Dir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer broker.Close()
	actions := genActions(43, 600, 15, 12)
	prod := broker.NewProducer()
	for _, a := range actions {
		prod.Send("actions", a.User, EncodeAction(a))
	}
	p := Params{FlushInterval: time.Hour}

	run := func(group string) *MemState {
		st := NewMemState()
		spout := NewTDAccessSpout(TDAccessSpoutConfig{
			Broker: broker, Topic: "actions", Group: group, StopWhenDrained: true,
		})
		topo, err := NewBuilder("replay-"+group, spout, st, p).Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topo.Run(nil); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st1 := run("realtime")
	st2 := run("offline") // independent group: full replay from disk

	for i := 0; i < 12; i++ {
		item := fmt.Sprintf("i%d", i)
		a := readStateCounter(t, st1, prefixItemCount+item, 0, 0)
		b := readStateCounter(t, st2, prefixItemCount+item, 0, 0)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("replayed itemCount(%s) = %v, realtime %v", item, b, a)
		}
	}
}
