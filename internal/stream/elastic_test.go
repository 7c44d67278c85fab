package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSink tallies executed data tuples per key.
type countingSink struct {
	mu     *sync.Mutex
	counts map[string]int
}

func (b *countingSink) Prepare(TopologyContext, Collector) error { return nil }
func (b *countingSink) Cleanup()                                 {}
func (b *countingSink) Execute(tp *Tuple) error {
	if tp.IsTick() {
		return nil
	}
	b.mu.Lock()
	b.counts[tp.Value("key").(string)]++
	b.mu.Unlock()
	return nil
}

// TestRebalanceScalesLiveParallelism scales a fields-grouped bolt up and
// down repeatedly while a spout streams keyed tuples, and asserts the
// strongest property the protocol promises: nothing dropped, exact
// per-key counts at the sink (no tuple lost or duplicated), and component
// totals continuous across the task-set swaps. Run under -race by
// scripts/check.sh.
func TestRebalanceScalesLiveParallelism(t *testing.T) {
	const (
		keys   = 32
		perKey = 200
	)
	sp := &keyedSpout{keys: keys, perKey: perKey}
	sink := &countingSink{mu: &sync.Mutex{}, counts: make(map[string]int)}

	tb := NewTopologyBuilder("rebalance")
	tb.SetSpout("spout", func() Spout { return sp }, 1)
	tb.SetBolt("mid", func() Bolt {
		return &BoltFunc{
			Fn: func(tp *Tuple, c Collector) error {
				if tp.IsTick() {
					return nil
				}
				c.Emit(Values{tp.Value("key"), tp.Value("seq")})
				return nil
			},
			Output: Fields{"key", "seq"},
		}
	}, 2).On("spout", DefaultStream, byFields("key"))
	tb.SetBolt("sink", func() Bolt { return sink }, 2).On("mid", DefaultStream, byFields("key"))
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()

	for i, n := range []int{5, 1, 6, 3} {
		time.Sleep(5 * time.Millisecond)
		if err := h.Rebalance("mid", n); err != nil {
			t.Fatalf("rebalance #%d to %d: %v", i, n, err)
		}
		if got := h.Parallelism("mid"); got != n {
			t.Fatalf("after rebalance #%d: parallelism = %d, want %d", i, got, n)
		}
	}
	if err := h.Rebalance("sink", 4); err != nil {
		t.Fatalf("rebalance sink: %v", err)
	}
	h.Wait()

	m := h.Metrics()
	for name, c := range m.Components {
		if c.Dropped != 0 {
			t.Fatalf("%s dropped %d tuples during rebalances, want 0", name, c.Dropped)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.counts) != keys {
		t.Fatalf("sink saw %d keys, want %d", len(sink.counts), keys)
	}
	for k, n := range sink.counts {
		if n != perKey {
			t.Fatalf("key %s: %d tuples, want exactly %d (lost or duplicated across rebalance)", k, n, perKey)
		}
	}
	if got := m.Components["mid"].Executed; got != keys*perKey {
		t.Fatalf("mid executed %d across rebalances, want %d (metrics fold lost counts)", got, keys*perKey)
	}
	if got := m.Components["mid"].Tasks; got != 3 {
		t.Fatalf("mid Tasks = %d in snapshot, want 3", got)
	}
	if got := h.Rebalances(); got != 5 {
		t.Fatalf("Rebalances() = %d, want 5", got)
	}
}

// heldSpout is a rangeSpout that stays open once it has run dry, polling
// idle until release is closed, so a test can address the live topology
// for as long as it needs.
type heldSpout struct {
	rangeSpout
	release <-chan struct{}
}

func (s *heldSpout) NextTuple() bool {
	if s.rangeSpout.NextTuple() {
		return true
	}
	select {
	case <-s.release:
		return false
	default:
		time.Sleep(100 * time.Microsecond)
		return true
	}
}

// TestRebalanceValidation covers the control API's error paths. The spout
// is held open until the no-op rebalance has been checked: a topology that
// had already shut down would refuse that call too.
func TestRebalanceValidation(t *testing.T) {
	sink, _, _ := newSink()
	release := make(chan struct{})
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &heldSpout{rangeSpout: rangeSpout{n: 100}, release: release} }, 1)
	tb.SetBolt("sink", sink, 2).On("spout", DefaultStream, byFields("n"))
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	if err := h.Rebalance("nope", 2); err == nil {
		t.Fatal("rebalance of unknown component succeeded")
	}
	if err := h.Rebalance("spout", 2); err == nil {
		t.Fatal("rebalance of a spout succeeded")
	}
	if err := h.Rebalance("sink", 0); err == nil {
		t.Fatal("rebalance to 0 tasks succeeded")
	}
	if err := h.Rebalance("sink", NumPartitions+1); err == nil {
		t.Fatal("rebalance past the partition count succeeded")
	}
	if err := h.Rebalance("sink", 2); err != nil {
		t.Fatalf("no-op rebalance to current parallelism errored: %v", err)
	}
	close(release)
	h.Wait()
	if err := h.Rebalance("sink", 3); err == nil {
		t.Fatal("rebalance after shutdown succeeded")
	}
}

// burstSpout emits a spike of n keyed tuples as fast as the engine lets
// it and counts the emissions that have returned.
type burstSpout struct {
	n        int
	next     int
	c        SpoutCollector
	emittedN atomic.Int64
}

func (s *burstSpout) Open(_ TopologyContext, c SpoutCollector) error {
	s.c = c
	s.next = 0
	return nil
}

func (s *burstSpout) NextTuple() bool {
	if s.next >= s.n {
		return false
	}
	s.c.Emit(Values{fmt.Sprintf("k%d", s.next%97), s.next})
	s.next++
	s.emittedN.Add(1)
	return true
}

func (s *burstSpout) Close() {}

func (s *burstSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"key", "n"}}
}

// The burst topology's shallow queue: burstQueueDepth batches of
// burstMaxBatch tuples.
const (
	burstQueueDepth = 4
	burstMaxBatch   = 8
)

// burstTopology builds spout → sink with a shallow queue, the spike shape:
// the spout produces as fast as it is let, and the sink takes nothing
// until release is closed. seen counts the sink's executions of each of
// the n tuples; read it after the topology has shut down.
func burstTopology(t *testing.T, n int, release <-chan struct{}) (topo *Topology, sp *burstSpout, seen []int) {
	t.Helper()
	seen = make([]int, n)
	sp = &burstSpout{n: n}
	tb := NewTopologyBuilder("burst")
	tb.SetMaxBatch(burstMaxBatch)
	tb.SetQueueDepth(burstQueueDepth)
	tb.SetBolt("sink", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() {
				<-release
				seen[tp.Value("n").(int)]++
			}
			return nil
		}}
	}, 1).On("spout", DefaultStream, byFields("key"))
	tb.SetSpout("spout", func() Spout { return sp }, 1)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, sp, seen
}

// TestSpoutStopsAtQueueCapacity pins the engine's one flow control: a
// spout is never more than the queues ahead of its slowest consumer. With
// the sink blocked, the spout's emissions stop growing at most at the
// queue's batches, the batch the sink holds in Execute, the batch blocked
// in the send and the collector's buffer. Released, the sink then gets
// every tuple exactly once.
func TestSpoutStopsAtQueueCapacity(t *testing.T) {
	const n = 2000
	release := make(chan struct{})
	topo, sp, seen := burstTopology(t, n, release)
	h := topo.Submit()
	// The spout has stopped once the sink's queue is full and the count
	// holds still across 20 polls.
	in := h.rt.taskList("sink")[0].in
	stalled, still := sp.emittedN.Load(), 0
	for still < 20 {
		time.Sleep(5 * time.Millisecond)
		if now := sp.emittedN.Load(); now != stalled || len(in) < cap(in) {
			stalled, still = now, 0
		} else {
			still++
		}
	}
	if max := int64((burstQueueDepth + 3) * burstMaxBatch); stalled > max {
		t.Fatalf("spout emitted %d tuples with the sink blocked, want at most %d", stalled, max)
	}
	close(release)
	h.Wait()
	for i, k := range seen {
		if k != 1 {
			t.Fatalf("tuple %d executed %d times, want exactly once", i, k)
		}
	}
}

// TestQueueDepthKnobValidation covers SetQueueDepth's error path.
func TestQueueDepthKnobValidation(t *testing.T) {
	mk := func(configure func(tb *TopologyBuilder)) error {
		sink, _, _ := newSink()
		tb := NewTopologyBuilder("t")
		tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 1} }, 1)
		tb.SetBolt("sink", sink, 1).Shuffle("spout")
		configure(tb)
		_, err := tb.Build()
		return err
	}
	if err := mk(func(tb *TopologyBuilder) { tb.SetQueueDepth(0) }); err == nil {
		t.Fatal("SetQueueDepth(0) validated")
	}
	if err := mk(func(tb *TopologyBuilder) { tb.SetQueueDepth(16) }); err != nil {
		t.Fatalf("valid queue depth rejected: %v", err)
	}
}
