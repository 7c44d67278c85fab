package stream

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runKeys are the grouping keys of the run tests: enough of them to reach
// every task at parallelism 8.
func runKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("pair-%03d\x1fitem-%d", i*7, i)
	}
	return keys
}

// TestRunSplitMatchesSingleTupleRouting is the split rule on the collector
// alone: at every parallelism a row of a run is buffered for the task a
// plain tuple holding its key would be, in emit order; one destination task
// gets the emitter's own slices; a run of no rows emits nothing.
func TestRunSplitMatchesSingleTupleRouting(t *testing.T) {
	keys := runKeys(64)
	for _, par := range []int{1, 3, 4, 8} {
		tb := NewTopologyBuilder("split")
		tb.SetSpout("src", func() Spout { return &rangeSpout{} }, 1)
		tb.SetBolt("fan", func() Bolt {
			return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }, Output: Fields{"key", "seq"}}
		}, 1).Shuffle("src")
		tb.SetBolt("sink", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, par).Fields("fan", "key")
		topo, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		rt := newRuntime(topo, nil)
		col := newCollector(rt.taskList("fan")[0], rt)
		a := rt.comps["sink"].assign.Load()

		run := make(Run, len(keys))
		want := make([][]string, par)
		for i, k := range keys {
			run[i] = Row{Key: k, Num: float64(i)}
			single := Tuple{Values: Values{k, 7}, fields: Fields{"key", "seq"}}
			d := a.parts[hashValues(&single, Fields{"key"})&partMask]
			want[d] = append(want[d], k)
		}
		values := Values{run, 7}
		col.Emit(values)
		col.Emit(Values{Run{}, 7})
		eb := col.outs[DefaultStream].edges[0]
		dests := 0
		for d := range want {
			if len(want[d]) == 0 {
				if len(eb.bufs[d]) != 0 {
					t.Fatalf("par %d: task %d got a tuple and owns no key", par, d)
				}
				continue
			}
			dests++
			if len(eb.bufs[d]) != 1 {
				t.Fatalf("par %d: task %d got %d tuples for one run, want 1", par, d, len(eb.bufs[d]))
			}
			tup := eb.bufs[d][0]
			got := tup.Run("key")
			if len(got) != len(want[d]) || tup.Value("seq") != 7 {
				t.Fatalf("par %d: task %d got %d rows (seq %v), want %d", par, d, len(got), tup.Value("seq"), len(want[d]))
			}
			for i, row := range got {
				if row.Key != want[d][i] {
					t.Fatalf("par %d: task %d row %d is %q, a single tuple's order gives %q", par, d, i, row.Key, want[d][i])
				}
			}
			if par == 1 && &tup.Values[0] != &values[0] {
				t.Fatal("one destination task: the run was copied")
			}
		}
		if col.emitted != int64(len(run)) || col.transferred != int64(dests) {
			t.Fatalf("par %d: emitted %d transferred %d, want %d rows and %d deliveries", par, col.emitted, col.transferred, len(run), dests)
		}
	}
}

// gatedSpout emits 0..n-1, counting them in emitted, and stops emitting
// while hold is set.
type gatedSpout struct {
	n       int
	hold    *atomic.Bool
	emitted *atomic.Int64
	next    int
	c       SpoutCollector
}

func (s *gatedSpout) Open(_ TopologyContext, c SpoutCollector) error { s.c = c; return nil }
func (s *gatedSpout) Close()                                         {}
func (s *gatedSpout) NextTuple() bool {
	if s.next == s.n {
		return false
	}
	if s.hold.Load() {
		time.Sleep(50 * time.Microsecond)
		return true
	}
	s.c.Emit(Values{s.next})
	s.next++
	s.emitted.Add(1)
	if s.next%32 == 0 {
		time.Sleep(100 * time.Microsecond) // long enough for faults to land mid-run
	}
	return true
}
func (s *gatedSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// runFanBolt emits, for input n, the same keyed rows twice: as one run on
// "run" and as a tuple each on "single".
type runFanBolt struct {
	keys []string
	c    Collector
}

func (b *runFanBolt) Prepare(_ TopologyContext, c Collector) error { b.c = c; return nil }
func (b *runFanBolt) Cleanup()                                     {}
func (b *runFanBolt) Execute(t *Tuple) error {
	if t.IsTick() {
		return nil
	}
	n := t.Value("n").(int)
	var run Run
	for j, k := range b.keys {
		if (n+j)%3 != 0 {
			run = append(run, Row{Key: k, Num: float64(n)})
		}
	}
	for _, row := range run {
		b.c.EmitTo("single", Values{row.Key, row.Num})
	}
	b.c.EmitTo("run", Values{run, n})
	return nil
}
func (b *runFanBolt) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{"run": {"key", "n"}, "single": {"key", "seq"}}
}

// arrival is one row as a sink saw it.
type arrival struct {
	seq  float64
	task int
}

// arrivalLog is what a sink component saw, per key, in arrival order.
type arrivalLog struct {
	mu   sync.Mutex
	seen map[string][]arrival
}

type arrivalSink struct {
	log  *arrivalLog
	task int
}

func (b *arrivalSink) Prepare(ctx TopologyContext, _ Collector) error {
	b.task = ctx.TaskIndex
	return nil
}
func (b *arrivalSink) Cleanup() {}
func (b *arrivalSink) Execute(t *Tuple) error {
	if t.IsTick() {
		return nil
	}
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	if run := t.Run("key"); run != nil {
		for _, row := range run {
			b.log.seen[row.Key] = append(b.log.seen[row.Key], arrival{row.Num, b.task})
		}
		return nil
	}
	key := t.Str("key")
	b.log.seen[key] = append(b.log.seen[key], arrival{t.Value("seq").(float64), b.task})
	return nil
}

// TestRunRoutingEqualsSingleTuples: the same keyed rows sent as one run and
// as single tuples reach the same task in the same per-key order, exactly
// once, at parallelism 1, 3, 4 and 8, across a rebalance of both sinks from
// each to the next and with tasks of all three bolts restarted under load.
// Run under -race by scripts/check.sh.
func TestRunRoutingEqualsSingleTuples(t *testing.T) {
	keys := runKeys(20)
	const n = 3000
	for _, pars := range [][2]int{{1, 3}, {3, 4}, {4, 8}, {8, 1}} {
		t.Run(fmt.Sprintf("%dto%d", pars[0], pars[1]), func(t *testing.T) {
			var hold atomic.Bool
			var emitted atomic.Int64
			byRun := &arrivalLog{seen: make(map[string][]arrival)}
			bySingle := &arrivalLog{seen: make(map[string][]arrival)}
			tb := NewTopologyBuilder("run-equiv")
			tb.SetSpout("spout", func() Spout { return &gatedSpout{n: n, hold: &hold, emitted: &emitted} }, 1)
			tb.SetBolt("fan", func() Bolt { return &runFanBolt{keys: keys} }, 1).Shuffle("spout")
			tb.SetBolt("runSink", func() Bolt { return &arrivalSink{log: byRun} }, pars[0]).FieldsOn("fan", "run", "key")
			tb.SetBolt("singleSink", func() Bolt { return &arrivalSink{log: bySingle} }, pars[0]).FieldsOn("fan", "single", "key")
			topo, err := tb.Build()
			if err != nil {
				t.Fatal(err)
			}
			h := topo.SubmitWithErrorHandler(func(c string, err error) { t.Errorf("component %s: %v", c, err) })
			restart := func(round int) {
				for _, c := range []string{"fan", "runSink", "singleSink"} {
					_ = h.RestartTask(c, round%h.Parallelism(c)) // an error only means it already shut down
				}
			}
			for i := 0; i < 4; i++ {
				time.Sleep(time.Millisecond)
				restart(i)
			}
			// Both sinks change parallelism with nothing in flight between
			// the two rebalances, so a row and its twin are always routed
			// under the same table.
			hold.Store(true)
			if emitted.Load() >= n {
				t.Fatal("the run was over before the rebalance; the test did not exercise what it is for")
			}
			for h.InFlight() != 0 {
				time.Sleep(100 * time.Microsecond)
			}
			for _, c := range []string{"runSink", "singleSink"} {
				if err := h.Rebalance(c, pars[1]); err != nil {
					t.Fatal(err)
				}
			}
			hold.Store(false)
			for i := 0; i < 4; i++ {
				time.Sleep(time.Millisecond)
				restart(i)
			}
			h.Wait()
			for j, k := range keys {
				run, single := byRun.seen[k], bySingle.seen[k]
				want := 0
				for i := 0; i < n; i++ {
					if (i+j)%3 != 0 {
						want++
					}
				}
				if len(run) != want || len(single) != want {
					t.Fatalf("key %q: %d rows by run, %d by single tuples, want %d each", k, len(run), len(single), want)
				}
				for i := range run {
					if run[i] != single[i] {
						t.Fatalf("key %q arrival %d: by run seq %v on task %d, by single tuple seq %v on task %d",
							k, i, run[i].seq, run[i].task, single[i].seq, single[i].task)
					}
					if i > 0 && run[i].seq <= run[i-1].seq {
						t.Fatalf("key %q: seq %v arrived after %v", k, run[i].seq, run[i-1].seq)
					}
				}
			}
		})
	}
}

// delivered is one Execute of a deliverySink.
type delivered struct {
	tup  *Tuple
	dest string // sink component and task
	rows string // the keys the tuple carried, in order
}

// deliveryLog is what the sinks of one TestDeliveryGetsItsOwnTuple case saw.
type deliveryLog struct {
	mu      sync.Mutex
	arrived *sync.Cond
	k       int                 // deliveries per emission
	got     map[int][]delivered // message -> deliveries in arrival order
}

// deliverySink records its deliveries and fails the first one of failMsg
// that reaches failDest.
type deliverySink struct {
	log      *deliveryLog
	dest     string
	failMsg  int
	failDest string
	failed   *atomic.Bool
}

func (b *deliverySink) Prepare(ctx TopologyContext, _ Collector) error {
	b.dest = fmt.Sprintf("%s/%d", ctx.Component, ctx.TaskIndex)
	return nil
}
func (b *deliverySink) Cleanup() {}
func (b *deliverySink) Execute(t *Tuple) error {
	if t.IsTick() {
		return nil
	}
	n := t.Value("n").(int)
	rows := ""
	if run := t.Run("key"); run != nil {
		for _, row := range run {
			rows += row.Key + ";"
		}
	} else {
		rows = t.Str("key")
	}
	l := b.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got[n] = append(l.got[n], delivered{t, b.dest, rows})
	l.arrived.Broadcast()
	// Hold the tuple until the emission's other deliveries are executing
	// too: k tuples in use at once cannot be one tuple recycled k times.
	for whole := (len(l.got[n]) + l.k - 1) / l.k * l.k; len(l.got[n]) < whole; {
		l.arrived.Wait()
	}
	if n == b.failMsg && b.dest == b.failDest && b.failed.CompareAndSwap(false, true) {
		return errors.New("delivery rejected")
	}
	return nil
}

// TestDeliveryGetsItsOwnTuple is the delivery rule over every way an
// emission fans out: to one subscriber, to two subscribers of one stream
// (Features.CB's user_action), to the 3 tasks of an All grouping; a plain
// tuple or a run. Each destination task gets a *Tuple no other Execute of
// that emission sees, Transferred counts them, and one failing Execute
// among an emission's k is reported once and delivers nothing again.
func TestDeliveryGetsItsOwnTuple(t *testing.T) {
	const msgs, failMsg = 40, 5
	keys := runKeys(6)
	shapes := []struct {
		name     string
		k        int
		failDest string
		wire     func(tb *TopologyBuilder, sink func() Bolt)
	}{
		{"one subscriber", 1, "a/0", func(tb *TopologyBuilder, sink func() Bolt) {
			tb.SetBolt("a", sink, 1).Fields("fan", "key")
		}},
		{"two subscribers", 2, "b/0", func(tb *TopologyBuilder, sink func() Bolt) {
			tb.SetBolt("a", sink, 1).Fields("fan", "key")
			tb.SetBolt("b", sink, 1).Fields("fan", "key")
		}},
		{"all grouping", 3, "a/2", func(tb *TopologyBuilder, sink func() Bolt) {
			tb.SetBolt("a", sink, 3).All("fan")
		}},
	}
	for _, shape := range shapes {
		for _, asRun := range []bool{false, true} {
			name := fmt.Sprintf("%s/run=%v/anchored=false", shape.name, asRun)
			t.Run(name, func(t *testing.T) {
				k := shape.k
				log := &deliveryLog{k: k, got: make(map[int][]delivered)}
				log.arrived = sync.NewCond(&log.mu)
				var failed atomic.Bool
				tb := NewTopologyBuilder("delivery")
				tb.SetSpout("spout", func() Spout { return &rangeSpout{n: msgs} }, 1)
				tb.SetBolt("fan", func() Bolt {
					return &BoltFunc{
						Fn: func(tp *Tuple, c Collector) error {
							n := tp.Value("n").(int)
							if !asRun {
								c.Emit(Values{keys[n%len(keys)], n})
								return nil
							}
							run := make(Run, len(keys))
							for i, key := range keys {
								run[i] = Row{Key: key, Num: float64(n)}
							}
							c.Emit(Values{run, n})
							return nil
						},
						Output: Fields{"key", "n"},
					}
				}, 1).Shuffle("spout")
				shape.wire(tb, func() Bolt {
					return &deliverySink{log: log, failMsg: failMsg, failDest: shape.failDest, failed: &failed}
				})
				topo, err := tb.Build()
				if err != nil {
					t.Fatal(err)
				}
				var errs atomic.Int64
				h := topo.SubmitWithErrorHandler(func(string, error) { errs.Add(1) })
				h.Wait()

				if errs.Load() != 1 {
					t.Fatalf("%d errors, want the 1 rejected delivery", errs.Load())
				}
				m := h.Metrics()
				if want := int64(msgs * (1 + k)); m.Transferred != want {
					t.Fatalf("transferred %d, want %d: %d emissions of spout and fan each, %d deliveries per fan emission", m.Transferred, want, msgs, k)
				}
				for n := 0; n < msgs; n++ {
					got := log.got[n]
					if len(got) != k {
						t.Fatalf("message %d: %d deliveries, want %d", n, len(got), k)
					}
					tuples, dests := make(map[*Tuple]bool), make(map[string]bool)
					for _, d := range got {
						tuples[d.tup], dests[d.dest] = true, true
						if d.rows != got[0].rows {
							t.Fatalf("message %d: %s got rows %q, the first delivery %q", n, d.dest, d.rows, got[0].rows)
						}
					}
					if len(tuples) != k || len(dests) != k {
						t.Fatalf("message %d: %d tuples to %d destinations, want %d of each: %v", n, len(tuples), len(dests), k, got)
					}
				}
			})
		}
	}
}

// BenchmarkEmitRun measures one emission of a 20-row run, an action's
// co-rating deltas, through the collector to 1 and to 4 destination tasks.
// What it may allocate is the run's own slices: the emitter's rows, values
// and boxed run, and for a split the rows and values of the parts and a
// boxed run per part; nothing per row, and a tuple only when the free list
// is empty because the emitter ran ahead of the drainers.
func BenchmarkEmitRun(b *testing.B) {
	keys := runKeys(20)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("tasks=%d", par), func(b *testing.B) {
			tb := NewTopologyBuilder("bench")
			tb.SetSpout("src", func() Spout { return &rangeSpout{} }, 1)
			tb.SetBolt("fan", func() Bolt {
				return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }, Output: Fields{"key", "session"}}
			}, 1).Shuffle("src")
			tb.SetBolt("sink", func() Bolt { return &BoltFunc{Fn: func(*Tuple, Collector) error { return nil }} }, par).Fields("fan", "key")
			topo, err := tb.Build()
			if err != nil {
				b.Fatal(err)
			}
			rt := newRuntime(topo, nil)
			stop := drainTasks(b, rt, "sink")
			col := newCollector(rt.taskList("fan")[0], rt)
			session := interface{}(int64(0))
			emit := func() {
				run := make(Run, len(keys))
				for i, k := range keys {
					run[i] = Row{Key: k, Num: 1}
				}
				col.Emit(Values{run, session})
			}
			for i := 0; i < 4*DefaultMaxBatch; i++ {
				emit()
			}
			col.flushAll()
			time.Sleep(10 * time.Millisecond) // let the drainers recycle tuples
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				emit()
			}
			col.flushAll()
			b.StopTimer()
			stop()
		})
	}
}
