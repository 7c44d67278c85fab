package topology

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
	"tencentrec/internal/tdstore"
)

// errBrokerBlip is the fault the soak arms on broker partitions.
var errBrokerBlip = errors.New("broker partition blip")

// heldSpout keeps a spout that stops when drained polling until release
// is closed, so a fault schedule runs to its end against a live topology.
// polls counts its NextTuple calls.
type heldSpout struct {
	stream.Spout
	release <-chan struct{}
	polls   *atomic.Int64
}

func (s *heldSpout) NextTuple() bool {
	s.polls.Add(1)
	if s.Spout.NextTuple() {
		return true
	}
	select {
	case <-s.release:
		return false
	default:
		time.Sleep(500 * time.Microsecond)
		return true
	}
}

func (s *heldSpout) DeclareOutputFields() map[string]stream.Fields {
	return s.Spout.(stream.OutputDeclarer).DeclareOutputFields()
}

// stopped waits up to d for h to shut down and reports whether it did.
func stopped(h *stream.RunningTopology, d time.Duration) bool {
	done := make(chan struct{})
	go func() { h.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestChaosSoakLosesNothing is the delivery soak: the full CF topology,
// combiner on as every System runs it, works over a real TDAccess broker
// and TDStore cluster while a chaos goroutine rebalances bolt parallelism
// live and blips broker data servers. On the one delivery path —
// the spout commits each poll once it is emitted, a rebalance flushes the
// retiring tasks, and the store holds the state (§3.3) — the item counts
// must stay EXACTLY equal to the sequential library's (zero lost actions,
// zero double counts), and the topology must still quiesce on its own.
//
// The faults must land: the spout is held until the schedule is done,
// the actions are published in chunks ahead of each round's rebalances
// and broker fault, every rebalance issued must be counted, and the spout
// must poll while each round's broker partitions are failed.
//
// A store fault is a process fault here: every instance lives in the one
// process, so TestSystemKill9RestoreSoak and TestColdRestartChaosSoak,
// which kill it and restore from a checkpoint, are what cover it.
func TestChaosSoakLosesNothing(t *testing.T) {
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

	const items, rounds = 24, 3
	actions := genActions(59, 6000, 30, items)
	prod := broker.NewProducer()
	// One chunk before the topology starts, then two per round.
	chunks := make([][]RawAction, 1+2*rounds)
	for i := range chunks {
		chunks[i] = actions[i*len(actions)/len(chunks) : (i+1)*len(actions)/len(chunks)]
	}
	publish := func(as []RawAction) error {
		for _, a := range as {
			if _, _, err := prod.Send("user-actions", a.User, EncodeAction(a)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := publish(chunks[0]); err != nil {
		t.Fatal(err)
	}

	p := Params{
		FlushInterval: time.Hour,
	}
	inner := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker:          broker,
		Topic:           "user-actions",
		Group:           "chaos",
		StopWhenDrained: true,
		PollBatch:       64,
		IdleSleep:       500 * time.Microsecond,
	})
	release := make(chan struct{})
	var polls atomic.Int64
	spout := func() stream.Spout { return &heldSpout{Spout: inner(), release: release, polls: &polls} }
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

	var rebalances int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(release)
		pause := func() { time.Sleep(2 * time.Millisecond) }
		// Every rebalance changes the unit's parallelism, so each is counted.
		rebalance := func(unit string, n int) {
			if err := h.Rebalance(unit, n); err != nil {
				t.Errorf("rebalance %s to %d: %v", unit, n, err)
			}
			rebalances++
		}
		for round := 0; round < rounds; round++ {
			if err := publish(chunks[1+2*round]); err != nil {
				t.Errorf("publish: %v", err)
			}
			pause()

			// Live rebalances mid-chaos: the elastic data plane must keep
			// the exactness guarantee through task-set swaps too.
			rebalance(UnitUserHistory, 2+round%2) // 3 → 2 → 3 → 2
			rebalance(UnitItemCount, 1+round%3)   // 2 → 1 → 2 → 3
			pause()

			// Broker partition blip while the spout reads a fresh chunk:
			// its polls error and back off until the fault clears.
			if err := publish(chunks[2+2*round]); err != nil {
				t.Errorf("publish: %v", err)
			}
			bs := round % 2
			failPartitions := func(err error) {
				for _, p := range []int{bs, bs + 2} {
					if ferr := broker.FailPartition("user-actions", p, err); ferr != nil {
						t.Errorf("broker fail partition %d: %v", p, ferr)
					}
				}
			}
			failPartitions(errBrokerBlip)
			before := polls.Load()
			for deadline := time.Now().Add(10 * time.Second); polls.Load() < before+2 && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
			if polled := polls.Load() - before; polled < 2 {
				t.Errorf("round %d: the spout polled %d times while broker partitions %d and %d were down", round, polled, bs, bs+2)
			}
			pause()
			failPartitions(nil)
		}
	}()

	if !stopped(h, 120*time.Second) {
		t.Fatal("chaos soak did not quiesce within 120s")
	}
	wg.Wait()
	if got := h.Rebalances(); got != rebalances {
		t.Errorf("%d rebalances counted, %d issued", got, rebalances)
	}

	// Every rebalance must have handed its queues over: nothing discarded
	// anywhere.
	for name, c := range h.Metrics().Components {
		if c.Dropped != 0 {
			t.Errorf("component %s dropped %d tuples", name, c.Dropped)
		}
	}

	// Zero lost actions: the store's item counts equal the sequential
	// library's, exactly, despite rebalances and broker faults.
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
