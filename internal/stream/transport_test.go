package stream

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// BenchmarkEmitRoute measures the emit→route→buffer path of the batched
// transport in isolation: one collector emitting fields-grouped tuples to
// a 4-task sink, or to two of them subscribed to the one stream, with
// drainer goroutines recycling tuples to the free list the way runBoltTask
// does. The acceptance target, held by scripts/check.sh, is ≤1 alloc/op:
// the Values slice is the only per-emit allocation; each delivery's tuple
// comes from the pool and the grouping hash is allocation-free.
func BenchmarkEmitRoute(b *testing.B) {
	for _, subs := range []int{1, 2} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			tb := NewTopologyBuilder("bench")
			tb.SetSpout("src", func() Spout { return &rangeSpout{n: 0} }, 1)
			sinks := []string{"sink", "sink2"}[:subs]
			for _, sink := range sinks {
				tb.SetBolt(sink, func() Bolt {
					return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }}
				}, 4).On("src", DefaultStream, byFields("n"))
			}
			topo, err := tb.Build()
			if err != nil {
				b.Fatal(err)
			}
			rt := newRuntime(topo, nil)

			// Pre-boxed keys so interface conversion does not allocate per emit.
			const nKeys = 256
			keys := make([]interface{}, nKeys)
			for i := range keys {
				keys[i] = "key-" + strconv.Itoa(i)
			}

			col := newCollector(rt.taskList("src")[0], rt)
			// Warm up: grow the route and destination buffers and seed the tuple
			// pool, so short -benchtime smoke runs measure the steady state. The
			// drainers start behind the warm-up and are waited for, so its
			// tuples are all new and all in the pool afterwards however the
			// goroutines are scheduled: check.sh's smoke run draws fewer.
			for i := 0; i < 64*DefaultMaxBatch; i++ {
				col.Emit(Values{keys[i&(nKeys-1)]})
			}
			col.flushAll()
			stop := drainTasks(b, rt, sinks...)
			rt.waitQuiescent()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col.Emit(Values{keys[i&(nKeys-1)]})
			}
			col.flushAll()
			b.StopTimer()
			stop()
		})
	}
}

// drainTasks stands in for the components' bolt tasks in a collector
// benchmark: goroutines recycle delivered tuples to the free list the way
// runBoltTask does. The returned stop closes the queues, waits for them to
// drain and requires that nothing is left in flight.
func drainTasks(b *testing.B, rt *runtime, components ...string) (stop func()) {
	var wg sync.WaitGroup
	var tasks []*task
	for _, c := range components {
		tasks = append(tasks, rt.taskList(c)...)
	}
	for _, tk := range tasks {
		wg.Add(1)
		go func(tk *task) {
			defer wg.Done()
			for batch := range tk.in {
				for _, tup := range batch {
					tup.release()
				}
				rt.pending.Add(-int64(len(batch)))
			}
		}(tk)
	}
	return func() {
		for _, tk := range tasks {
			close(tk.in)
		}
		wg.Wait()
		if got := rt.pending.Load(); got != 0 {
			b.Fatalf("pending = %d after drain, want 0", got)
		}
	}
}

// TestTicksSkippedCounted saturates a slow bolt's input queue and checks
// that dropped interval ticks are surfaced in the TicksSkipped metric
// instead of vanishing silently.
func TestTicksSkippedCounted(t *testing.T) {
	tb := NewTopologyBuilder("t")
	// maxBatch 1 makes every tuple its own batch, so the spout can fill
	// the bolt's input queue (DefaultQueueDepth batches) outright while
	// the bolt sleeps on each tuple.
	tb.SetMaxBatch(1)
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: DefaultQueueDepth + 200} }, 1)
	tb.SetBolt("slow", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() {
				time.Sleep(200 * time.Microsecond)
			}
			return nil
		}}
	}, 1).Shuffle("spout").Tick(100 * time.Microsecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Components["slow"].TicksSkipped == 0 {
		t.Fatal("no ticks skipped despite a saturated queue")
	}
}

// TestWaitQuiescentPrompt checks the backoff variant of waitQuiescent
// still detects quiescence quickly: it must block while work is pending
// and return within a few backoff periods once the count reaches zero.
func TestWaitQuiescentPrompt(t *testing.T) {
	tb := NewTopologyBuilder("t")
	tb.SetSpout("s", func() Spout { return &rangeSpout{n: 0} }, 1)
	tb.SetBolt("b", func() Bolt {
		return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }}
	}, 1).Shuffle("s")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := newRuntime(topo, nil)
	rt.pending.Add(1)
	const hold = 10 * time.Millisecond
	// start is read before the hold begins, so a pending count that
	// drops after the hold drops at least hold after start.
	start := time.Now()
	go func() {
		time.Sleep(hold)
		rt.pending.Add(-1)
	}()
	rt.waitQuiescent()
	elapsed := time.Since(start)
	if elapsed < hold {
		t.Fatalf("waitQuiescent returned after %v with work still pending", elapsed)
	}
	// The backoff is capped at 2ms, so detection lags the final ack by at
	// most one capped sleep plus scheduling noise.
	if elapsed > hold+100*time.Millisecond {
		t.Fatalf("waitQuiescent took %v, want within ~%v", elapsed, hold+100*time.Millisecond)
	}
}

// keyedSpout emits (key, seq) pairs round-robin over its own disjoint key
// space, with seq strictly increasing per key. The occasional sleep keeps
// the topology running long enough for fault injection to land mid-flow.
type keyedSpout struct {
	task    int
	keys    int
	perKey  int
	emitted int
	c       SpoutCollector
}

func (s *keyedSpout) Open(ctx TopologyContext, c SpoutCollector) error {
	s.task = ctx.TaskIndex
	s.c = c
	s.emitted = 0
	return nil
}

func (s *keyedSpout) NextTuple() bool {
	if s.emitted >= s.keys*s.perKey {
		return false
	}
	key := fmt.Sprintf("s%d-k%d", s.task, s.emitted%s.keys)
	seq := s.emitted / s.keys
	s.c.Emit(Values{key, seq})
	s.emitted++
	if s.emitted%64 == 0 {
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func (s *keyedSpout) Close() {}

func (s *keyedSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"key", "seq"}}
}

// TestStressFieldsGroupingUnderRebalance runs a multi-stage fields-grouped
// topology at parallelism ≥2 and rebalances the middle bolt again and
// again while tuples flow, and asserts that the batched transport
// preserves the per-(source-task, dest-task) ordering guarantee: every
// key's sequence arrives exactly once, in order, at a single sink task.
// Run under -race (scripts/check.sh does) to also exercise the
// transport's memory model.
func TestStressFieldsGroupingUnderRebalance(t *testing.T) {
	const (
		spouts = 2
		keys   = 8 // per spout task, disjoint across tasks by construction
		perKey = 400
	)
	mu := &sync.Mutex{}
	st := &sinkState{next: make(map[string]int), task: make(map[string]int)}
	var orderErr error

	tb := NewTopologyBuilder("stress")
	tb.SetSpout("spout", func() Spout { return &keyedSpout{keys: keys, perKey: perKey} }, spouts)
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
	}, 4).On("spout", DefaultStream, byFields("key"))
	tb.SetBolt("sink", func() Bolt {
		return &taskAwareSink{mu: mu, st: st, errp: &orderErr}
	}, 4).On("mid", DefaultStream, byFields("key"))
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}

	h := topo.Submit()
	// Swap the middle bolt's task set while tuples flow.
	for i := 0; i < 12; i++ {
		time.Sleep(2 * time.Millisecond)
		if err := h.Rebalance("mid", 2+(i+1)%4); err != nil {
			break // topology already drained; the window is over
		}
	}
	h.Wait()

	mu.Lock()
	defer mu.Unlock()
	if orderErr != nil {
		t.Fatal(orderErr)
	}
	if got, want := len(st.next), spouts*keys; got != want {
		t.Fatalf("sink saw %d distinct keys, want %d", got, want)
	}
	for key, n := range st.next {
		if n != perKey {
			t.Fatalf("key %s: saw %d tuples, want exactly %d", key, n, perKey)
		}
	}
	if h.Rebalances() == 0 {
		t.Fatal("no rebalance landed; the test did not exercise the topology")
	}
}

// sinkState is the shared record of what the stress-test sink observed:
// the next expected sequence number and the owning task per key.
type sinkState struct {
	next map[string]int
	task map[string]int
}

// taskAwareSink verifies per-key delivery order, exactly-once counts and
// single-task ownership under fields grouping.
type taskAwareSink struct {
	mu   *sync.Mutex
	st   *sinkState
	errp *error
	task int
}

func (b *taskAwareSink) Prepare(ctx TopologyContext, _ Collector) error {
	b.task = ctx.TaskIndex
	return nil
}

func (b *taskAwareSink) Execute(tp *Tuple) error {
	if tp.IsTick() {
		return nil
	}
	key := tp.Value("key").(string)
	seq := tp.Value("seq").(int)
	b.mu.Lock()
	defer b.mu.Unlock()
	if *b.errp != nil {
		return nil
	}
	if prev, ok := b.st.task[key]; ok && prev != b.task {
		*b.errp = fmt.Errorf("key %s executed on tasks %d and %d", key, prev, b.task)
		return nil
	}
	b.st.task[key] = b.task
	if want := b.st.next[key]; seq != want {
		*b.errp = fmt.Errorf("key %s: got seq %d, want %d (reordered or dropped)", key, seq, want)
		return nil
	}
	b.st.next[key]++
	return nil
}

func (b *taskAwareSink) Cleanup() {}
