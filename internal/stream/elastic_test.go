package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ackKeyedSpout emits (key, seq) pairs anchored to their emission index,
// replays failures, and exhausts only once every message is acked — the
// shape of a real offset-committing spout. Used by the rebalance tests
// to prove zero loss and zero replay across live parallelism changes.
type ackKeyedSpout struct {
	keys   int
	perKey int

	next    int
	pending map[int]bool
	replayQ []int
	c       SpoutCollector

	ackedN  atomic.Int64
	failedN atomic.Int64
}

func (s *ackKeyedSpout) Open(_ TopologyContext, c SpoutCollector) error {
	s.c = c
	s.next = 0
	s.pending = make(map[int]bool)
	return nil
}

func (s *ackKeyedSpout) emit(id int) {
	key := fmt.Sprintf("k%d", id%s.keys)
	s.c.EmitAnchored(id, Values{key, id / s.keys})
}

func (s *ackKeyedSpout) NextTuple() bool {
	if len(s.replayQ) > 0 {
		id := s.replayQ[len(s.replayQ)-1]
		s.replayQ = s.replayQ[:len(s.replayQ)-1]
		s.emit(id)
		return true
	}
	if s.next < s.keys*s.perKey {
		id := s.next
		s.next++
		s.pending[id] = true
		s.emit(id)
		if s.next%64 == 0 {
			time.Sleep(100 * time.Microsecond) // keep the run long enough to rebalance mid-stream
		}
		return true
	}
	if len(s.pending) > 0 {
		time.Sleep(50 * time.Microsecond)
		return true
	}
	return false
}

func (s *ackKeyedSpout) Ack(msgID interface{}) {
	if id, ok := msgID.(int); ok && s.pending[id] {
		delete(s.pending, id)
		s.ackedN.Add(1)
	}
}

func (s *ackKeyedSpout) Fail(msgID interface{}) {
	if id, ok := msgID.(int); ok && s.pending[id] {
		s.failedN.Add(1)
		s.replayQ = append(s.replayQ, id)
	}
}

func (s *ackKeyedSpout) Close() {}

func (s *ackKeyedSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"key", "seq"}}
}

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
	b.counts[tp.Str("key")]++
	b.mu.Unlock()
	return nil
}

// TestRebalanceScalesLiveParallelism scales a fields-grouped bolt up and
// down repeatedly while an acking spout streams keyed tuples, and
// asserts the strongest property the protocol promises: every message
// acked, none failed (so none replayed), exact per-key counts at the
// sink, and component totals continuous across the task-set swaps. Run
// under -race by scripts/check.sh.
func TestRebalanceScalesLiveParallelism(t *testing.T) {
	const (
		keys   = 32
		perKey = 200
	)
	sp := &ackKeyedSpout{keys: keys, perKey: perKey}
	sink := &countingSink{mu: &sync.Mutex{}, counts: make(map[string]int)}

	tb := NewTopologyBuilder("rebalance")
	tb.SetAcking(true)
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
	}, 2).Fields("spout", "key")
	tb.SetBolt("sink", func() Bolt { return sink }, 2).Fields("mid", "key")
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

	if got := sp.ackedN.Load(); got != keys*perKey {
		t.Fatalf("acked %d messages, want %d", got, keys*perKey)
	}
	if got := sp.failedN.Load(); got != 0 {
		t.Fatalf("%d messages failed during rebalances, want 0", got)
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
	m := h.Metrics()
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

// TestRebalanceValidation covers the control API's error paths.
func TestRebalanceValidation(t *testing.T) {
	sink, _, _ := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 100} }, 1)
	tb.SetBolt("sink", sink, 2).Fields("spout", "n")
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
	h.Wait()
	if err := h.Rebalance("sink", 3); err == nil {
		t.Fatal("rebalance after shutdown succeeded")
	}
}

// burstSpout emits a spike of n keyed tuples as fast as the engine lets
// it and records when it finished handing them all over, so tests can
// tell a spout that stalled on a full pipeline from one that did not.
type burstSpout struct {
	n        int
	next     int
	c        SpoutCollector
	doneAt   *atomic.Int64
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
	if s.next == s.n {
		s.doneAt.Store(time.Now().UnixNano())
	}
	return true
}

func (s *burstSpout) Close() {}

func (s *burstSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"key", "n"}}
}

// burstTopology builds spout → slow sink with a shallow queue, the 10×
// spike shape: the spout produces instantly, the sink consumes at
// delay/tuple, so the pipeline must either stall the spout (blocking
// backpressure), throttle it (credit-based), or spill (overflow ring).
func burstTopology(t *testing.T, n int, delay time.Duration, configure func(tb *TopologyBuilder)) (*Topology, *burstSpout, *int64) {
	t.Helper()
	var executed int64
	sp := &burstSpout{n: n, doneAt: &atomic.Int64{}}
	tb := NewTopologyBuilder("burst")
	tb.SetMaxBatch(8)
	tb.SetQueueDepth(4)
	tb.SetBolt("slow", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() {
				time.Sleep(delay)
				atomic.AddInt64(&executed, 1)
			}
			return nil
		}}
	}, 1).Fields("spout", "key")
	tb.SetSpout("spout", func() Spout { return sp }, 1)
	if configure != nil {
		configure(tb)
	}
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, sp, &executed
}

// TestBurstBlocksWithoutOverflow pins down the baseline the overflow
// ring exists to fix: with a shallow queue and a slow consumer, the
// spout cannot finish emitting a spike until the consumer has chewed
// through most of it — ingest is coupled to the slowest stage.
func TestBurstBlocksWithoutOverflow(t *testing.T) {
	const n = 2000
	topo, sp, executed := burstTopology(t, n, 100*time.Microsecond, nil)
	start := time.Now()
	h := topo.Submit()
	h.Wait()
	total := time.Since(start)
	if got := atomic.LoadInt64(executed); got != n {
		t.Fatalf("executed %d tuples, want %d", got, n)
	}
	spoutDone := time.Duration(sp.doneAt.Load() - start.UnixNano())
	// The queue holds 4 batches × 8 tuples; everything beyond that had to
	// wait for the sink, so the spout finished in the run's final stretch.
	if spoutDone < total/2 {
		t.Fatalf("spout exhausted after %v of %v without overflow; expected blocking to couple it to the sink", spoutDone, total)
	}
}

// TestBurstAbsorbedByOverflow is the same spike with the disk ring on:
// the spout's spike lands in the overflow ring and ingest decouples
// from the slow consumer, with zero tuple loss.
func TestBurstAbsorbedByOverflow(t *testing.T) {
	const n = 2000
	topo, sp, executed := burstTopology(t, n, 100*time.Microsecond, func(tb *TopologyBuilder) {
		tb.SetOverflow(t.TempDir())
	})
	start := time.Now()
	h := topo.Submit()
	h.Wait()
	total := time.Since(start)
	if got := atomic.LoadInt64(executed); got != n {
		t.Fatalf("executed %d tuples, want %d (ring lost tuples)", got, n)
	}
	spilled, drained := h.OverflowStats()
	if spilled == 0 {
		t.Fatal("no batches spilled; the burst never reached the ring")
	}
	if spilled != drained {
		t.Fatalf("spilled %d batches but drained %d", spilled, drained)
	}
	spoutDone := time.Duration(sp.doneAt.Load() - start.UnixNano())
	if spoutDone > total/2 {
		t.Fatalf("spout exhausted after %v of %v with overflow on; expected ingest to decouple from the sink", spoutDone, total)
	}
}

// TestBackpressureThrottlesSpout checks the credit-based throttle: with
// water marks set, the spout pauses instead of blocking mid-batch, the
// trip counters record it, and every tuple still arrives.
func TestBackpressureThrottlesSpout(t *testing.T) {
	const n = 2000
	topo, _, executed := burstTopology(t, n, 50*time.Microsecond, func(tb *TopologyBuilder) {
		tb.SetBackpressure(3, 1)
	})
	h := topo.Submit()
	h.Wait()
	if got := atomic.LoadInt64(executed); got != n {
		t.Fatalf("executed %d tuples, want %d", got, n)
	}
	pauses, paused := h.BackpressureStats()
	if pauses == 0 {
		t.Fatal("backpressure never tripped under a 10x burst")
	}
	if paused <= 0 {
		t.Fatalf("pauses=%d but paused time is %v", pauses, paused)
	}
}

// TestOverflowPreservesLineage runs the spike with acking and the ring
// enabled together: anchored tuples survive the disk round-trip with
// their lineage intact, so every spout message is acked and none fail.
func TestOverflowPreservesLineage(t *testing.T) {
	const n = 1500
	sp := &ackRangeSpout{n: n}
	var executed atomic.Int64
	tb := NewTopologyBuilder("burst-acked")
	tb.SetMaxBatch(8)
	tb.SetQueueDepth(4)
	tb.SetAcking(true)
	tb.SetOverflow(t.TempDir())
	tb.SetSpout("spout", func() Spout { return sp }, 1)
	tb.SetBolt("slow", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() {
				time.Sleep(50 * time.Microsecond)
				executed.Add(1)
			}
			return nil
		}}
	}, 1).Fields("spout", "n")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	h.Wait()
	if got := sp.ackedN.Load(); got != n {
		t.Fatalf("acked %d messages, want %d", got, n)
	}
	if got := sp.failedN.Load(); got != 0 {
		t.Fatalf("%d messages failed, want 0", got)
	}
	if got := executed.Load(); got != n {
		t.Fatalf("executed %d tuples, want %d", got, n)
	}
	if spilled, _ := h.OverflowStats(); spilled == 0 {
		t.Fatal("no batches spilled; the acked burst never exercised the ring")
	}
}

// TestQueueDepthKnobValidation covers the builder knobs' error paths.
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
	if err := mk(func(tb *TopologyBuilder) { tb.SetAckerQueueDepth(-1) }); err == nil {
		t.Fatal("SetAckerQueueDepth(-1) validated")
	}
	if err := mk(func(tb *TopologyBuilder) { tb.SetBackpressure(2, 5) }); err == nil {
		t.Fatal("SetBackpressure(low >= high) validated")
	}
	if err := mk(func(tb *TopologyBuilder) { tb.SetOverflow("") }); err == nil {
		t.Fatal("SetOverflow(\"\") validated")
	}
	if err := mk(func(tb *TopologyBuilder) {
		tb.SetQueueDepth(16).SetAckerQueueDepth(64).SetBackpressure(8, 2)
	}); err != nil {
		t.Fatalf("valid knobs rejected: %v", err)
	}
}

// BenchmarkBurstOverflow measures the burst path end to end: a spike of
// b.N tuples through a shallow queue into a slow-ish sink with the disk
// ring enabled.
func BenchmarkBurstOverflow(b *testing.B) {
	var executed int64
	sp := &burstSpout{n: b.N, doneAt: &atomic.Int64{}}
	tb := NewTopologyBuilder("burst-bench")
	tb.SetMaxBatch(8)
	tb.SetQueueDepth(4)
	tb.SetOverflow(b.TempDir())
	tb.SetSpout("spout", func() Spout { return sp }, 1)
	tb.SetBolt("slow", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() {
				atomic.AddInt64(&executed, 1)
			}
			return nil
		}}
	}, 1).Fields("spout", "key")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	h := topo.Submit()
	h.Wait()
	b.StopTimer()
	if got := atomic.LoadInt64(&executed); got != int64(b.N) {
		b.Fatalf("executed %d tuples, want %d", got, b.N)
	}
}
