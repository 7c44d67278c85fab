package stream

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stagingLog is what the stagingBolt instances of one test share: what
// has been "written" (flushed), how much each non-empty flush carried,
// and what the engine's in-flight count read at that moment.
type stagingLog struct {
	mu      sync.Mutex
	written map[int]bool
	flushes []int // staged tuples at each non-empty FlushBatch
	// uncounted counts flushes that ran after the engine had already
	// subtracted their tuples from the in-flight count.
	uncounted int
	// failOn makes the failOn-th non-empty flush (1-based) return an error
	// and lose what it staged; 0 never fails.
	failOn int
}

func (l *stagingLog) writtenCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.written)
}

func (l *stagingLog) has(id int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written[id]
}

// stagingBolt is a write-behind bolt: Execute only stages, FlushBatch
// "writes". Its first Execute blocks on gate, so a test can let the whole
// input queue up behind it and then watch the flush cadence under a
// backlog whose batch boundaries it knows.
type stagingBolt struct {
	log    *stagingLog
	gate   <-chan struct{}
	h      *atomic.Pointer[RunningTopology]
	staged []int
	// flushDelay stands in for the store write a real flush does.
	flushDelay time.Duration
	// down, while set, makes every flush fail and keep what it staged.
	down *atomic.Bool
}

func (b *stagingBolt) Prepare(TopologyContext, Collector) error { return nil }

func (b *stagingBolt) Execute(t *Tuple) error {
	if b.gate != nil {
		<-b.gate
		b.gate = nil
	}
	b.staged = append(b.staged, t.Value("n").(int))
	return nil
}

func (b *stagingBolt) FlushBatch() error {
	if len(b.staged) == 0 {
		return nil
	}
	if b.down != nil && b.down.Load() {
		return errors.New("staging store down")
	}
	time.Sleep(b.flushDelay)
	l := b.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flushes = append(l.flushes, len(b.staged))
	if h := b.h.Load(); h != nil && h.InFlight() < int64(len(b.staged)) {
		l.uncounted++
	}
	if len(l.flushes) == l.failOn {
		b.staged = b.staged[:0]
		return errors.New("staging store unavailable")
	}
	for _, id := range b.staged {
		l.written[id] = true
	}
	b.staged = b.staged[:0]
	return nil
}

func (b *stagingBolt) Cleanup() {}

// idlingSpout emits the integers [0, n) and then idles without exhausting,
// so the topology keeps running and nothing but the engine's own flush
// points can land what the bolt staged.
type idlingSpout struct {
	n       int
	next    int
	c       SpoutCollector
	emitted *atomic.Int64
}

func (s *idlingSpout) Open(_ TopologyContext, c SpoutCollector) error { s.c = c; return nil }

func (s *idlingSpout) NextTuple() bool {
	if s.next == s.n {
		time.Sleep(100 * time.Microsecond)
		return true
	}
	s.c.Emit(Values{s.next})
	s.next++
	s.emitted.Store(int64(s.next))
	return true
}

func (s *idlingSpout) Close() {}

func (s *idlingSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// openGateWhen closes the returned channel once cond holds.
func openGateWhen(cond func() bool) <-chan struct{} {
	gate := make(chan struct{})
	go func() {
		for !cond() {
			time.Sleep(100 * time.Microsecond)
		}
		close(gate)
	}()
	return gate
}

// TestBatchFlusherCadence pins when the hook fires: under a backlog after
// every metricsFlushBatches batches and no more often, when the queue
// empties, and always while the tuples it covers still count as in
// flight — which is what lets "pending == 0" keep meaning "written". The
// time spent flushing is metered on its own, beside the Execute histogram.
func TestBatchFlusherCadence(t *testing.T) {
	const flushDelay = 20 * time.Millisecond
	const batches = 2*metricsFlushBatches + 8
	const n = batches * DefaultMaxBatch
	var emitted atomic.Int64
	var handle atomic.Pointer[RunningTopology]
	log := &stagingLog{written: make(map[int]bool)}
	gate := openGateWhen(func() bool { return emitted.Load() == n })

	tb := NewTopologyBuilder("flush-cadence")
	tb.SetLinger(time.Hour) // only full batches leave the spout
	tb.SetSpout("spout", func() Spout { return &idlingSpout{n: n, emitted: &emitted} }, 1)
	tb.SetBolt("stage", func() Bolt {
		return &stagingBolt{log: log, gate: gate, h: &handle, flushDelay: flushDelay}
	}, 1).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	handle.Store(h)
	defer func() { h.Stop(); h.Wait() }()

	// The spout never exhausts, so every write below was landed by the
	// runtime's flush points, not by shutdown.
	deadline := time.Now().Add(10 * time.Second)
	for log.writtenCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tuples flushed with the topology idle", log.writtenCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	full := metricsFlushBatches * DefaultMaxBatch
	if want := []int{full, full, 8 * DefaultMaxBatch}; !slices.Equal(log.flushes, want) {
		t.Errorf("flush sizes %v, want %v (every %d batches, then queue-empty)", log.flushes, want, metricsFlushBatches)
	}
	if log.uncounted != 0 {
		t.Errorf("%d flushes ran after their tuples had left the in-flight count", log.uncounted)
	}
	// Flush time is busy time the Execute histogram does not hold: its
	// samples stay per-Execute, the hook's time has its own counter.
	st := h.Metrics().Components["stage"]
	for st.Executed < n && time.Now().Before(deadline) { // folded right after the last flush
		time.Sleep(time.Millisecond)
		st = h.Metrics().Components["stage"]
	}
	if st.Executed != n || st.FlushTime < 3*flushDelay {
		t.Errorf("stage flush time %v over %d tuples, want at least the %v its three flushes took", st.FlushTime, st.Executed, 3*flushDelay)
	}
	if st.MaxExecute >= flushDelay {
		t.Errorf("stage max Execute %v: a flush was observed as an Execute sample", st.MaxExecute)
	}
}

// TestBatchFlusherErrorWithoutAcking pins what a failed flush means when
// no acks can carry it: it is counted and reported like an Execute error,
// the tuples still leave the in-flight count (as a tuple whose Execute
// failed does), so "in flight == 0 implies written" holds only while the
// component's error count has not moved; and the flush the engine runs
// before Cleanup reports its failure the same way instead of dropping it.
func TestBatchFlusherErrorWithoutAcking(t *testing.T) {
	const n = 3 * DefaultMaxBatch
	var emitted atomic.Int64
	var down atomic.Bool
	down.Store(true)
	var handle atomic.Pointer[RunningTopology]
	log := &stagingLog{written: make(map[int]bool)}
	var reported atomic.Int64

	tb := NewTopologyBuilder("flush-error")
	tb.SetSpout("spout", func() Spout { return &idlingSpout{n: n, emitted: &emitted} }, 1)
	tb.SetBolt("stage", func() Bolt { return &stagingBolt{log: log, h: &handle, down: &down} }, 1).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.SubmitWithErrorHandler(func(component string, err error) {
		if component == "stage" && err.Error() == "staging store down" {
			reported.Add(1)
		}
	})
	handle.Store(h)

	deadline := time.Now().Add(10 * time.Second)
	for emitted.Load() < n || h.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("did not drain: %d emitted, %d in flight", emitted.Load(), h.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	idle := reported.Load()
	if errs := h.Metrics().Components["stage"].Errors; idle == 0 || errs != idle || log.writtenCount() != 0 {
		t.Fatalf("drained with %d errors reported, %d counted, %d tuples written; want the failed flushes reported and counted, nothing written",
			idle, errs, log.writtenCount())
	}
	h.Stop()
	h.Wait()
	if reported.Load() != idle+1 {
		t.Errorf("%d flush errors reported after shutdown, want %d: the failed final flush must be reported", reported.Load(), idle+1)
	}
}

// flushCheckSpout is ackRangeSpout that also checks, at the moment an ack
// arrives, that the bolt had flushed the message.
type flushCheckSpout struct {
	ackRangeSpout
	log     *stagingLog
	emitted *atomic.Int64
	early   atomic.Int64 // acks that arrived before the write
}

func (s *flushCheckSpout) NextTuple() bool {
	more := s.ackRangeSpout.NextTuple()
	s.emitted.Store(int64(s.next))
	return more
}

func (s *flushCheckSpout) Ack(msgID interface{}) {
	if id, ok := msgID.(int); ok && !s.log.has(id) {
		s.early.Add(1)
	}
	s.ackRangeSpout.Ack(msgID)
}

// TestBatchFlusherAckOrderingAndFailure runs the hook under acking with a
// backlog, where acks leave through pushAckerMsg's buffer-full flush as
// well as through flushAll: no ack may reach the spout before the write
// it stands for, and a failed flush fails exactly the roots it covered,
// which replay and land.
func TestBatchFlusherAckOrderingAndFailure(t *testing.T) {
	const n = 40 * DefaultMaxBatch
	var emitted atomic.Int64
	var handle atomic.Pointer[RunningTopology]
	log := &stagingLog{written: make(map[int]bool), failOn: 2}
	sp := &flushCheckSpout{ackRangeSpout: ackRangeSpout{n: n}, log: log, emitted: &emitted}
	gate := openGateWhen(func() bool { return emitted.Load() == n })

	var errMu sync.Mutex
	var errs []string
	tb := NewTopologyBuilder("flush-acked")
	tb.SetAcking(true)
	tb.SetLinger(time.Hour)
	tb.SetSpout("spout", func() Spout { return sp }, 1)
	tb.SetBolt("stage", func() Bolt { return &stagingBolt{log: log, gate: gate, h: &handle} }, 1).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.SubmitWithErrorHandler(func(component string, err error) {
		errMu.Lock()
		errs = append(errs, component+": "+err.Error())
		errMu.Unlock()
	})
	handle.Store(h)
	h.Wait() // the spout exhausts once every message is acked

	if got := sp.ackedN.Load(); got != n {
		t.Errorf("acked %d messages, want %d", got, n)
	}
	if got := sp.early.Load(); got != 0 {
		t.Errorf("%d acks reached the spout before their write was flushed", got)
	}
	// With the whole input queued, the ack buffer fills (ackerFlushLen)
	// before 16 batches have gone by, so the first flushes are its.
	if len(log.flushes) < 2 || log.flushes[0] != ackerFlushLen || log.flushes[1] != ackerFlushLen {
		t.Fatalf("flush sizes %v, want the first two at the ack buffer's %d", log.flushes, ackerFlushLen)
	}
	if got := sp.failedN.Load(); got != ackerFlushLen {
		t.Errorf("failed %d messages, want the %d the failed flush covered", got, ackerFlushLen)
	}
	if log.writtenCount() != n {
		t.Errorf("%d/%d messages written after replay", log.writtenCount(), n)
	}
	if log.uncounted != 0 {
		t.Errorf("%d flushes ran after their tuples had left the in-flight count", log.uncounted)
	}
	errMu.Lock()
	defer errMu.Unlock()
	if len(errs) != 1 || errs[0] != "stage: staging store unavailable" {
		t.Errorf("error handler saw %q, want the one flush error from stage", errs)
	}
	if got := h.Metrics().Components["stage"].Errors; got != 1 {
		t.Errorf("stage errors = %d, want 1", got)
	}
}
