package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// rangeSpout emits the integers [0, n) as single-field tuples.
type rangeSpout struct {
	n, next int
	c       SpoutCollector
}

func (s *rangeSpout) Open(_ TopologyContext, c SpoutCollector) error {
	s.c = c
	s.next = 0
	return nil
}

func (s *rangeSpout) NextTuple() bool {
	if s.next >= s.n {
		return false
	}
	s.c.Emit(Values{s.next})
	s.next++
	return true
}

func (s *rangeSpout) Close() {}

func (s *rangeSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// sinkBolt records every tuple it sees, with the executing task index.
type sinkBolt struct {
	mu   *sync.Mutex
	seen *[]seenTuple
	task int
}

type seenTuple struct {
	task  int
	value interface{}
	tick  bool
}

func (b *sinkBolt) Prepare(ctx TopologyContext, _ Collector) error {
	b.task = ctx.TaskIndex
	return nil
}

func (b *sinkBolt) Execute(t *Tuple) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.IsTick() {
		*b.seen = append(*b.seen, seenTuple{task: b.task, tick: true})
		return nil
	}
	*b.seen = append(*b.seen, seenTuple{task: b.task, value: t.Value("n")})
	return nil
}

func (b *sinkBolt) Cleanup() {}

func newSink() (BoltFactory, *sync.Mutex, *[]seenTuple) {
	mu := &sync.Mutex{}
	seen := &[]seenTuple{}
	return func() Bolt { return &sinkBolt{mu: mu, seen: seen} }, mu, seen
}

func TestRunDeliversAllTuples(t *testing.T) {
	sink, mu, seen := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 1000} }, 1)
	tb.SetBolt("sink", sink, 4).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range m.Components {
		if c.Dropped != 0 {
			t.Fatalf("%s: dropped=%d on a healthy run, want 0", name, c.Dropped)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(*seen) != 1000 {
		t.Fatalf("got %d tuples, want 1000", len(*seen))
	}
	got := make(map[int]bool)
	for _, s := range *seen {
		got[s.value.(int)] = true
	}
	if len(got) != 1000 {
		t.Fatalf("got %d distinct values, want 1000", len(got))
	}
}

// byFields is a fields grouping on keys, for an edge declared with On.
func byFields(keys ...string) Grouping { return Grouping{Kind: FieldsGrouping, Fields: keys} }

func TestFieldsGroupingRoutesKeyToOneTask(t *testing.T) {
	sink, mu, seen := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 500} }, 1)
	// key = n % 7 via an intermediate bolt
	tb.SetBolt("keyer", func() Bolt {
		return &BoltFunc{
			Fn: func(tp *Tuple, c Collector) error {
				c.Emit(Values{tp.Value("n").(int) % 7})
				return nil
			},
			Output: Fields{"n"},
		}
	}, 2).Shuffle("spout")
	tb.SetBolt("sink", sink, 5).On("keyer", DefaultStream, byFields("n"))
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	taskByKey := make(map[interface{}]int)
	for _, s := range *seen {
		if prev, ok := taskByKey[s.value]; ok && prev != s.task {
			t.Fatalf("key %v seen on tasks %d and %d", s.value, prev, s.task)
		}
		taskByKey[s.value] = s.task
	}
	if len(*seen) != 500 {
		t.Fatalf("got %d tuples, want 500", len(*seen))
	}
}

func TestNamedStreams(t *testing.T) {
	var evens, odds atomic.Int64
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 100} }, 1)
	tb.SetBolt("split", func() Bolt {
		return &splitBolt{}
	}, 1).Shuffle("spout")
	tb.SetBolt("evens", func() Bolt {
		return &BoltFunc{Fn: func(*Tuple, Collector) error { evens.Add(1); return nil }}
	}, 2).On("split", "even", Grouping{Kind: ShuffleGrouping})
	tb.SetBolt("odds", func() Bolt {
		return &BoltFunc{Fn: func(*Tuple, Collector) error { odds.Add(1); return nil }}
	}, 2).On("split", "odd", Grouping{Kind: ShuffleGrouping})
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if evens.Load() != 50 || odds.Load() != 50 {
		t.Fatalf("evens=%d odds=%d, want 50/50", evens.Load(), odds.Load())
	}
}

type splitBolt struct{ c Collector }

func (b *splitBolt) Prepare(_ TopologyContext, c Collector) error { b.c = c; return nil }
func (b *splitBolt) Execute(t *Tuple) error {
	n := t.Value("n").(int)
	if n%2 == 0 {
		b.c.EmitTo("even", Values{n})
	} else {
		b.c.EmitTo("odd", Values{n})
	}
	return nil
}
func (b *splitBolt) Cleanup() {}
func (b *splitBolt) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{"even": {"n"}, "odd": {"n"}}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func() *TopologyBuilder
	}{
		{"no spouts", func() *TopologyBuilder {
			tb := NewTopologyBuilder("t")
			tb.SetBolt("b", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, 1)
			return tb
		}},
		{"unknown source", func() *TopologyBuilder {
			tb := NewTopologyBuilder("t")
			tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 1)
			tb.SetBolt("b", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, 1).Shuffle("nope")
			return tb
		}},
		{"undeclared stream", func() *TopologyBuilder {
			tb := NewTopologyBuilder("t")
			tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 1)
			tb.SetBolt("b", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, 1).On("s", "missing", Grouping{Kind: ShuffleGrouping})
			return tb
		}},
		{"missing grouping field", func() *TopologyBuilder {
			tb := NewTopologyBuilder("t")
			tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 1)
			tb.SetBolt("b", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, 1).On("s", DefaultStream, byFields("nope"))
			return tb
		}},
		{"duplicate name", func() *TopologyBuilder {
			tb := NewTopologyBuilder("t")
			tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 1)
			tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 1)
			return tb
		}},
		{"bolt without inputs", func() *TopologyBuilder {
			tb := NewTopologyBuilder("t")
			tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 1)
			tb.SetBolt("b", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, 1)
			return tb
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.build().Build(); err == nil {
				t.Fatal("Build succeeded, want error")
			}
		})
	}
}

func TestTickTuplesDelivered(t *testing.T) {
	var ticks atomic.Int64
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &slowSpout{n: 5, delay: 20 * time.Millisecond} }, 1)
	tb.SetBolt("b", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if tp.IsTick() {
				ticks.Add(1)
			}
			return nil
		}}
	}, 1).Shuffle("spout").Tick(5 * time.Millisecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// At least a few interval ticks plus the final flush tick.
	if ticks.Load() < 3 {
		t.Fatalf("got %d ticks, want >= 3", ticks.Load())
	}
}

type slowSpout struct {
	n, next int
	delay   time.Duration
	c       SpoutCollector
}

func (s *slowSpout) Open(_ TopologyContext, c SpoutCollector) error { s.c = c; return nil }
func (s *slowSpout) NextTuple() bool {
	if s.next >= s.n {
		return false
	}
	time.Sleep(s.delay)
	s.c.Emit(Values{s.next})
	s.next++
	return true
}
func (s *slowSpout) Close() {}
func (s *slowSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

func TestFinalFlushTickCascades(t *testing.T) {
	// A two-stage combiner-like chain: each stage buffers values and only
	// emits on tick. The final flush must cascade through both stages so
	// the sink still sees every value.
	sink, mu, seen := newSink()
	mkBuffer := func() Bolt { return &bufferBolt{} }
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 50} }, 1)
	tb.SetBolt("stage1", mkBuffer, 1).Shuffle("spout").Tick(time.Hour)
	tb.SetBolt("stage2", mkBuffer, 1).Shuffle("stage1").Tick(time.Hour)
	tb.SetBolt("sink", sink, 1).Shuffle("stage2")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var n int
	for _, s := range *seen {
		if !s.tick {
			n++
		}
	}
	if n != 50 {
		t.Fatalf("sink saw %d values, want 50 (flush did not cascade)", n)
	}
}

// bufferBolt holds tuples until a tick arrives, then re-emits them all.
type bufferBolt struct {
	c   Collector
	buf []int
}

func (b *bufferBolt) Prepare(_ TopologyContext, c Collector) error { b.c = c; return nil }
func (b *bufferBolt) Execute(t *Tuple) error {
	if t.IsTick() {
		for _, v := range b.buf {
			b.c.Emit(Values{v})
		}
		b.buf = b.buf[:0]
		return nil
	}
	b.buf = append(b.buf, t.Value("n").(int))
	return nil
}
func (b *bufferBolt) Cleanup() {}
func (b *bufferBolt) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// indexSpout records the context each of its tasks opens with and emits
// nothing.
type indexSpout struct {
	mu     *sync.Mutex
	opened *[]TopologyContext
}

func (s *indexSpout) Open(ctx TopologyContext, _ SpoutCollector) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.opened = append(*s.opened, ctx)
	return nil
}

func (s *indexSpout) NextTuple() bool { return false }
func (s *indexSpout) Close()          {}
func (s *indexSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// TestSpoutTasksOpenWithDistinctIndexes: each of a spout's n tasks opens
// once, with NumTasks n and its own TaskIndex in [0, n). A TDAccessSpout
// cuts its fixed share of the topic's partitions from these two numbers,
// so a repeated or missing index would read a partition twice or never.
func TestSpoutTasksOpenWithDistinctIndexes(t *testing.T) {
	const tasks = 3
	var mu sync.Mutex
	var opened []TopologyContext
	sink, _, _ := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &indexSpout{mu: &mu, opened: &opened} }, tasks)
	tb.SetBolt("sink", sink, 1).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(opened) != tasks {
		t.Fatalf("%d spout tasks opened, want %d", len(opened), tasks)
	}
	seen := make([]bool, tasks)
	for _, ctx := range opened {
		if ctx.Component != "spout" || ctx.NumTasks != tasks {
			t.Fatalf("spout task opened with %+v, want component spout of %d tasks", ctx, tasks)
		}
		if ctx.TaskIndex < 0 || ctx.TaskIndex >= tasks || seen[ctx.TaskIndex] {
			t.Fatalf("spout task indexes %+v are not 0…%d once each", opened, tasks-1)
		}
		seen[ctx.TaskIndex] = true
	}
}

func TestStopDrains(t *testing.T) {
	sink, mu, seen := newSink()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &slowSpout{n: 1 << 30, delay: 100 * time.Microsecond} }, 1)
	tb.SetBolt("sink", sink, 2).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	time.Sleep(20 * time.Millisecond)
	h.Stop()
	h.Wait()
	mu.Lock()
	n := len(*seen)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no tuples processed before stop")
	}
	m := h.Metrics()
	if m.Components["sink"].Executed != int64(n) {
		t.Fatalf("metrics executed=%d, sink saw %d", m.Components["sink"].Executed, n)
	}
	if m.Components["sink"].Dropped != 0 {
		t.Fatalf("sink dropped %d tuples on an orderly stop, want 0", m.Components["sink"].Dropped)
	}
}

func TestContextCancelStops(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &slowSpout{n: 1 << 30, delay: 100 * time.Microsecond} }, 1)
	tb.SetBolt("sink", func() Bolt {
		return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }}
	}, 1).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_, _ = topo.Run(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop after context cancellation")
	}
}

func TestErrorHandlerInvoked(t *testing.T) {
	var errs atomic.Int64
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 10} }, 1)
	tb.SetBolt("bad", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if tp.IsTick() {
				return nil
			}
			return fmt.Errorf("boom %v", tp.Value("n"))
		}}
	}, 1).Shuffle("spout")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := topo.RunWithErrorHandler(context.Background(), func(string, error) { errs.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if errs.Load() != 10 {
		t.Fatalf("error handler called %d times, want 10", errs.Load())
	}
	if m.Components["bad"].Errors != 10 {
		t.Fatalf("metrics errors=%d, want 10", m.Components["bad"].Errors)
	}
}

func TestTupleFieldAccess(t *testing.T) {
	tu := &Tuple{Component: "c", Stream: DefaultStream, Values: Values{"u1", "i1", 3}, fields: Fields{"user", "item", "w"}}
	if got := tu.Value("user"); got != "u1" {
		t.Fatalf("user = %v", got)
	}
	if _, ok := tu.TryValue("absent"); ok {
		t.Fatal("TryValue(absent) reported ok")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Value(absent) did not panic")
		}
	}()
	_ = tu.Value("absent")
}

func TestFieldsGroupingDeterministicProperty(t *testing.T) {
	g := Grouping{Kind: FieldsGrouping, Fields: Fields{"k"}}
	f := func(key string, n uint8) bool {
		tasks := int(n%16) + 1
		asn := newAssignment(make([]*task, tasks))
		tu := &Tuple{Values: Values{key}, fields: Fields{"k"}}
		a := g.route(tu, asn, nil)
		b := g.route(tu, asn, nil)
		return a == b && a < tasks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRoutingStableAcrossScale checks the logical-partition
// property the rebalance design rests on: a key's partition never moves,
// and for task counts that divide NumPartitions the round-robin
// partition table reproduces the pre-partition hash%n routing exactly.
func TestPartitionRoutingStableAcrossScale(t *testing.T) {
	g := Grouping{Kind: FieldsGrouping, Fields: Fields{"k"}}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		asn := newAssignment(make([]*task, n))
		for i := 0; i < 512; i++ {
			key := fmt.Sprintf("key-%d", i)
			tu := &Tuple{Values: Values{key}, fields: Fields{"k"}}
			got := g.route(tu, asn, nil)
			want := int(hashValues(tu, g.Fields) % uint64(n))
			if got != want {
				t.Fatalf("n=%d key=%s routed to %d, want hash%%n=%d", n, key, got, want)
			}
		}
	}
}

func TestMetricsSnapshotString(t *testing.T) {
	tb := NewTopologyBuilder("t")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 10} }, 1)
	tb.SetBolt("sink", func() Bolt {
		return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }}
	}, 1).Shuffle("spout")
	topo, _ := tb.Build()
	m, _ := topo.Run(context.Background())
	s := m.String()
	if s == "" || !contains(s, "spout") || !contains(s, "sink") {
		t.Fatalf("snapshot string missing components: %q", s)
	}
	if !contains(s, "ticks-skip") {
		t.Fatalf("snapshot string missing ticks-skip column: %q", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestDiamondTopologyFlushOrder(t *testing.T) {
	// Diamond: spout -> a -> (b, c) -> d. Topological flush order must
	// place a before b/c and b/c before d, so cascaded combiner flushes
	// deliver everything.
	mkBuffer := func() Bolt { return &bufferBolt{} }
	sink, mu, seen := newSink()
	tb := NewTopologyBuilder("diamond")
	tb.SetSpout("spout", func() Spout { return &rangeSpout{n: 30} }, 1)
	tb.SetBolt("a", mkBuffer, 1).Shuffle("spout").Tick(time.Hour)
	tb.SetBolt("b", mkBuffer, 1).Shuffle("a").Tick(time.Hour)
	tb.SetBolt("c", mkBuffer, 1).Shuffle("a").Tick(time.Hour)
	tb.SetBolt("d", sink, 1).Shuffle("b").Shuffle("c")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	n := 0
	for _, s := range *seen {
		if !s.tick {
			n++
		}
	}
	// Every value reaches d twice (via b and via c).
	if n != 60 {
		t.Fatalf("diamond sink saw %d values, want 60", n)
	}
}

func TestParallelismAccessors(t *testing.T) {
	tb := NewTopologyBuilder("t")
	tb.SetSpout("s", func() Spout { return &rangeSpout{n: 1} }, 3)
	tb.SetBolt("b", func() Bolt {
		return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }}
	}, 5).Shuffle("s")
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Parallelism("s") != 3 || topo.Parallelism("b") != 5 || topo.Parallelism("nope") != 0 {
		t.Fatal("Parallelism accessor wrong")
	}
	comps := topo.Components()
	if len(comps) != 2 || comps[0] != "s" {
		t.Fatalf("Components = %v", comps)
	}
}
