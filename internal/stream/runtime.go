package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tencentrec/internal/obsv"
)

// ErrUnknownComponent reports an operation addressed to a component the
// topology does not contain. Callers (the HTTP control plane) match it
// with errors.Is to distinguish "no such component" from invalid
// arguments.
var ErrUnknownComponent = errors.New("stream: unknown component")

// Topology is a validated processing graph, ready to run.
// Build one with TopologyBuilder.
type Topology struct {
	// Name identifies the topology, e.g. "cf-test" in the paper's Fig. 7.
	Name string

	spouts     []*spoutDecl
	bolts      []*boltDecl
	order      []string // bolt names in topological order
	maxBatch   int
	linger     time.Duration
	queueDepth int
	registry   *obsv.Registry
	tracer     *obsv.Tracer
}

// Components returns the names of all components, spouts first.
func (t *Topology) Components() []string {
	names := make([]string, 0, len(t.spouts)+len(t.bolts))
	for _, s := range t.spouts {
		names = append(names, s.name)
	}
	for _, b := range t.bolts {
		names = append(names, b.name)
	}
	return names
}

// Parallelism returns the task count of the named component, or 0.
func (t *Topology) Parallelism(name string) int {
	for _, s := range t.spouts {
		if s.name == name {
			return s.parallelism
		}
	}
	for _, b := range t.bolts {
		if b.name == name {
			return b.parallelism
		}
	}
	return 0
}

// DefaultQueueDepth bounds each task's input channel, in batches, unless
// overridden with TopologyBuilder.SetQueueDepth. Full channels exert
// backpressure on upstream emitters, which is how the engine survives the
// temporal burst events of §5.2 without unbounded memory growth (a task
// buffers at most depth × DefaultMaxBatch tuples).
const DefaultQueueDepth = 256

// DefaultMaxBatch is the per-destination flush threshold for the
// micro-batched transport: a destination buffer that reaches this many
// tuples is handed to the destination task as one channel send.
const DefaultMaxBatch = 64

// DefaultLinger bounds how long a spout-side buffer may hold tuples
// below the batch threshold before being flushed anyway, so trickle
// traffic still sees low delivery latency.
const DefaultLinger = time.Millisecond

// metricsFlushBatches bounds how many input batches a saturated bolt may
// process before folding its local counters into the shared metrics
// shards, so snapshots stay fresh under sustained load. The same flush
// runs a BatchFlusher bolt's hook, so it also bounds how much input such
// a bolt can have staged: metricsFlushBatches × maxBatch tuples.
const metricsFlushBatches = 16

// idleTickFraction is the share of its own period a ticked bolt must have
// gone without a tick before an idle round (see runTicker) may tick it
// again: one sixteenth, 6.25 ms of the default 100 ms flush interval.
const idleTickFraction = 16

type ctrlMsg int

const ctrlRestart ctrlMsg = iota

// edge is one compiled subscription: a (source, stream) pair routed to a
// destination bolt's tasks under a grouping. The destination's live task
// set is reached through the component's atomic assignment, so a rebalance
// re-points every edge to the component at once.
type edge struct {
	group  Grouping
	src    string
	stream string
	dest   *componentTasks
}

// componentTasks is the mutable task set of one component. The assignment
// pointer is the single source of truth for the component's live tasks and
// its partition→task table; emitters, tickers and the control plane all
// load it atomically.
type componentTasks struct {
	name    string
	isSpout bool
	assign  atomic.Pointer[assignment]
}

func (ct *componentTasks) tasks() []*task { return ct.assign.Load().tasks }

type task struct {
	component string
	index     int
	isSpout   bool
	in        chan []*Tuple
	ctrl      chan ctrlMsg
	done      chan struct{} // closed when the task goroutine has exited
	rng       *rand.Rand
	rt        *runtime
	restarts  atomic.Int64
}

// runtime is a single execution of a topology.
type runtime struct {
	topo    *Topology
	comps   map[string]*componentTasks
	edges   map[string]map[string][]*edge // source -> stream -> edges
	fields  map[string]map[string]Fields  // source -> stream -> field names
	ticked  []*boltDecl                   // bolts with a tick interval, in Topology.order
	pending atomic.Int64
	// entered is set by every spout emission (never by what a bolt emits,
	// a flush included) and cleared when an idle round starts: data has
	// come in since the last one. idle is the 1-slot nudge that wakes the
	// ticker when pending reaches zero with entered set.
	entered  atomic.Bool
	idle     chan struct{}
	metrics  *Metrics
	onError  func(component string, err error)
	maxBatch int
	linger   time.Duration
	tracer   *obsv.Tracer // nil unless the topology was built with SetTracer
	registry *obsv.Registry

	// Rebalance machinery (see rebalance): paused gates the spout loops,
	// pausedSpouts/activeSpouts let the control plane wait until every
	// live spout has flushed and parked, rebalanceMu serializes rebalances
	// against each other and against shutdown, and tickGate excludes
	// tickRound's sends during the task-set swap so a tick is never sent to
	// a just-closed input channel.
	paused       atomic.Bool
	pausedSpouts atomic.Int64
	activeSpouts atomic.Int64
	rebalanceMu  sync.Mutex
	closed       bool // set under rebalanceMu once shutdown begins
	tickGate     sync.RWMutex
	rebalances   atomic.Int64
	gaugeMax     map[string]int // per component, queue gauges registered so far
	seedSeq      atomic.Int64   // task rng seed sequence

	spoutStop  chan struct{} // closed to ask spouts to stop early
	tickerStop chan struct{}
	tickerWG   sync.WaitGroup
	taskWG     sync.WaitGroup
	spoutWG    sync.WaitGroup
}

// taskList returns the named component's current live tasks.
func (rt *runtime) taskList(name string) []*task { return rt.comps[name].tasks() }

// edgeBuf accumulates routed tuples for one edge, one buffer per
// destination task, until a flush hands the whole batch over. It caches
// the destination assignment it was sized for; sync adopts a new one.
type edgeBuf struct {
	edge *edge
	a    *assignment
	bufs [][]*Tuple
}

// sync adopts the destination's current assignment. A rebalance only
// installs a new assignment while the topology is drained, which — by the
// enqueue-before-release invariant (DESIGN.md §10) — implies every collector
// buffer is empty, so dropping the old buffers loses nothing and no send
// to a retired task's closed channel can ever happen.
func (eb *edgeBuf) sync() {
	if a := eb.edge.dest.assign.Load(); a != eb.a {
		eb.a = a
		eb.bufs = make([][]*Tuple, len(a.tasks))
	}
}

// streamOut is a component's compiled output for one stream id.
type streamOut struct {
	fields Fields
	edges  []*edgeBuf
}

// collector routes a task's emissions to downstream tasks in
// micro-batches. It also carries the task's batched bookkeeping: local
// metric counters folded into the task's metrics shard at flush time,
// and the executed tuples subtracted from the runtime's pending count
// once the emissions they produced have been enqueued.
//
// Flush rules (see DESIGN.md): a destination buffer flushes when it
// reaches maxBatch tuples; everything flushes when a bolt empties its
// input queue, when a spout polls idle or exceeds the linger deadline,
// and on every task exit path.
type collector struct {
	task     *task
	rt       *runtime
	sm       *metricsShard
	maxBatch int
	outs     map[string]*streamOut
	list     []*streamOut
	routeBuf []int
	rowDest  []int32 // destination task of each row of the Run being split
	buffered int     // tuples currently sitting in edge buffers

	// flusher is the task's bolt when it stages writes (BatchFlusher);
	// nil on spout collectors and for bolts without the hook.
	flusher BatchFlusher

	// Tracing state: tracer is set on spout collectors only and samples
	// new traces at emission; curTrace is the trace of the tuple a bolt is
	// currently executing, inherited by everything it emits.
	tracer   *obsv.Tracer
	curTrace *obsv.Trace

	// local counters, folded into sm by flushAll
	emitted     int64
	transferred int64
	executed    int64
	errors      int64
	released    int64 // executed input tuples not yet subtracted from pending

	lastFlush time.Time
}

func newCollector(tk *task, rt *runtime) *collector {
	c := &collector{
		task:      tk,
		rt:        rt,
		sm:        rt.metrics.shard(tk.component, tk.index),
		maxBatch:  rt.maxBatch,
		outs:      make(map[string]*streamOut),
		lastFlush: time.Now(),
	}
	if tk.isSpout {
		c.tracer = rt.tracer
	}
	for stream, fields := range rt.fields[tk.component] {
		so := &streamOut{fields: fields}
		for _, e := range rt.edges[tk.component][stream] {
			a := e.dest.assign.Load()
			so.edges = append(so.edges, &edgeBuf{edge: e, a: a, bufs: make([][]*Tuple, len(a.tasks))})
		}
		c.outs[stream] = so
		c.list = append(c.list, so)
	}
	return c
}

// Emit implements Collector.
func (c *collector) Emit(values Values) { c.EmitTo(DefaultStream, values) }

// EmitTo implements Collector.
func (c *collector) EmitTo(stream string, values Values) {
	// Emitted counts rows: a plain tuple is a run of one.
	ri, run := findRun(values)
	switch {
	case ri < 0:
		c.emitted++
	case len(run) == 0:
		return
	default:
		c.emitted += int64(len(run))
	}
	out := c.outs[stream]
	if out == nil || len(out.edges) == 0 {
		return // no subscribers: dropped, as before
	}
	// A bolt's emissions inherit the trace of the tuple being executed;
	// a spout emission is where sampling happens (tracer is set on spout
	// collectors only — the unsampled case costs one atomic increment).
	tr := c.curTrace
	if tr == nil && c.tracer != nil {
		tr = c.tracer.Sample()
	}
	// Routing reads the values through the probe, and every destination task
	// it names gets a tuple of its own copied from it (send): nothing is
	// shared across the appends, so an append may flush its buffer at once.
	probe := Tuple{Component: c.task.component, Stream: stream, Values: values, fields: out.fields, trace: tr}
	if tr != nil {
		probe.traceEnq = obsv.Now()
	}
	for _, eb := range out.edges {
		eb.sync()
		g, a := &eb.edge.group, eb.a
		if ri >= 0 && g.Kind == FieldsGrouping && len(a.tasks) > 1 && ri < len(out.fields) && g.Fields.index(out.fields[ri]) >= 0 {
			c.splitRun(eb, &probe, ri, run)
			continue
		}
		c.routeBuf = g.route(&probe, a, c.task.rng, c.routeBuf[:0])
		for _, i := range c.routeBuf {
			c.send(eb, i, &probe, values)
		}
	}
}

// send is one delivery: values go to task i of the edge's destination in a
// pooled tuple of their own, and the destination's buffer is flushed if that
// fills it. A spout's emission is in flight from here on: nothing else
// covers it while it waits in the buffer (a bolt's is covered by the input
// tuple that caused it, which leaves the in-flight count only after the
// buffers have been flushed), and without that a pipeline fast enough to
// finish everything handed over so far reads as drained between two spout
// flushes.
func (c *collector) send(eb *edgeBuf, i int, probe *Tuple, values Values) {
	t := getTuple(probe.Component, probe.Stream, values, probe.fields)
	t.trace, t.traceEnq = probe.trace, probe.traceEnq
	c.transferred++
	if c.task.isSpout {
		// In this order: a ticker that clears entered and then reads the
		// count at zero knows every delivery marked before has executed.
		c.rt.pending.Add(1)
		if !c.rt.entered.Load() {
			c.rt.entered.Store(true)
		}
	}
	eb.bufs[i] = append(eb.bufs[i], t)
	c.buffered++
	if len(eb.bufs[i]) >= c.maxBatch {
		c.flushDest(eb, i)
	}
}

// flushDest hands one destination's buffered tuples to its task as a
// single batch. A bolt's batch enters the in-flight count here, once per
// batch, before the send; a spout's entered it tuple by tuple in send, so
// quiescence detection never undercounts in-flight tuples. The send blocks
// while the task's queue is full (see DefaultQueueDepth).
func (c *collector) flushDest(eb *edgeBuf, i int) {
	buf := eb.bufs[i]
	if len(buf) == 0 {
		return
	}
	eb.bufs[i] = make([]*Tuple, 0, c.maxBatch)
	c.buffered -= len(buf)
	if !c.task.isSpout {
		c.rt.pending.Add(int64(len(buf)))
	}
	eb.a.tasks[i].in <- buf
}

// flushAll lands the bolt's staged writes, drains every destination
// buffer, folds the local metric counters into the task's shard, and
// releases executed input tuples. The order matters: staged writes land
// and emissions enter downstream queues (pending += n) before their causes
// are released (pending -= released), so the pending count can only reach
// zero when no tuple, consequence or unwritten effect is anywhere in
// flight.
func (c *collector) flushAll() {
	c.flushBolt()
	c.flushEmits()
	if c.emitted != 0 {
		c.sm.emitted.Add(c.emitted)
		c.emitted = 0
	}
	if c.transferred != 0 {
		c.sm.transferred.Add(c.transferred)
		c.transferred = 0
	}
	if c.executed != 0 {
		c.sm.executed.Add(c.executed)
		c.executed = 0
	}
	if c.errors != 0 {
		c.sm.errors.Add(c.errors)
		c.errors = 0
	}
	if c.released != 0 {
		// The pipeline has just gone idle over data that came in since the
		// last round: the ticker need not wait out the period (runTicker).
		if c.rt.pending.Add(-c.released) == 0 && c.rt.entered.Load() {
			select {
			case c.rt.idle <- struct{}{}:
			default:
			}
		}
		c.released = 0
	}
	c.lastFlush = time.Now()
}

// flushEmits hands every buffered emission to its destination task.
func (c *collector) flushEmits() {
	if c.buffered == 0 {
		return
	}
	for _, so := range c.list {
		for _, eb := range so.edges {
			for i := range eb.bufs {
				if len(eb.bufs[i]) > 0 {
					c.flushDest(eb, i)
				}
			}
		}
	}
}

// flushBolt runs the bolt's BatchFlusher hook, if it has one. flushAll,
// the one path that releases executed tuples, calls it first (see
// BatchFlusher for the contract); an error is counted and reported.
func (c *collector) flushBolt() {
	if c.flusher == nil {
		return
	}
	start := obsv.Now()
	err := c.flusher.FlushBatch()
	c.sm.flushNanos.Add(obsv.Now() - start)
	if err == nil {
		return
	}
	c.errors++
	c.rt.onError(c.task.component, err)
}

// retireBolt discards a bolt instance: its staged writes land through
// the hook first — the one place a failed flush is reported, so Cleanup
// itself need not (and cannot usefully) flush.
func (c *collector) retireBolt(b Bolt) {
	c.flushBolt()
	c.flusher = nil
	b.Cleanup()
}

func newRuntime(t *Topology, onError func(string, error)) *runtime {
	if onError == nil {
		onError = func(string, error) {}
	}
	rt := &runtime{
		topo:       t,
		comps:      make(map[string]*componentTasks),
		edges:      make(map[string]map[string][]*edge),
		fields:     make(map[string]map[string]Fields),
		metrics:    newMetrics(t),
		onError:    onError,
		maxBatch:   t.maxBatch,
		linger:     t.linger,
		gaugeMax:   make(map[string]int),
		idle:       make(chan struct{}, 1),
		spoutStop:  make(chan struct{}),
		tickerStop: make(chan struct{}),
	}
	if rt.maxBatch <= 0 {
		rt.maxBatch = DefaultMaxBatch
	}
	if rt.linger <= 0 {
		rt.linger = DefaultLinger
	}
	rt.tracer = t.tracer
	mkTasks := func(name string, n int, isSpout bool) {
		ct := &componentTasks{name: name, isSpout: isSpout}
		ct.assign.Store(newAssignment(rt.newTasks(name, n, isSpout)))
		rt.comps[name] = ct
	}
	for _, s := range t.spouts {
		mkTasks(s.name, s.parallelism, true)
		rt.fields[s.name] = s.outputs
	}
	byName := make(map[string]*boltDecl, len(t.bolts))
	for _, b := range t.bolts {
		mkTasks(b.name, b.parallelism, false)
		rt.fields[b.name] = b.outputs
		byName[b.name] = b
	}
	for _, name := range t.order {
		if b := byName[name]; b.tick > 0 {
			rt.ticked = append(rt.ticked, b)
		}
	}
	for _, b := range t.bolts {
		for _, in := range b.inputs {
			m := rt.edges[in.source]
			if m == nil {
				m = make(map[string][]*edge)
				rt.edges[in.source] = m
			}
			e := &edge{
				group:  in.group,
				src:    in.source,
				stream: in.stream,
				dest:   rt.comps[b.name],
			}
			m[in.stream] = append(m[in.stream], e)
		}
	}
	if t.registry != nil {
		rt.registerObservability(t.registry)
	}
	return rt
}

// newTasks allocates n fresh task structs for a component, numbered from 0.
// Each task's private rng is seeded from the runtime's seed sequence, so
// rebalance-spawned generations keep distinct streams.
func (rt *runtime) newTasks(name string, n int, isSpout bool) []*task {
	depth := rt.topo.queueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	ts := make([]*task, n)
	for i := range ts {
		ts[i] = &task{
			component: name,
			index:     i,
			isSpout:   isSpout,
			in:        make(chan []*Tuple, depth),
			ctrl:      make(chan ctrlMsg, 4),
			done:      make(chan struct{}),
			rng:       rand.New(rand.NewSource(rt.seedSeq.Add(1))),
			rt:        rt,
		}
	}
	return ts
}

func (rt *runtime) ctx(name string, index, n int) TopologyContext {
	return TopologyContext{
		Component: name,
		TaskIndex: index,
		NumTasks:  n,
	}
}

// runSpoutTask drives one spout instance until exhaustion or stop.
func (rt *runtime) runSpoutTask(decl *spoutDecl, tk *task) {
	defer rt.spoutWG.Done()
	rt.activeSpouts.Add(1)
	defer rt.activeSpouts.Add(-1)
	col := newCollector(tk, rt)
	defer col.flushAll() // buffered emissions leave on every return path
	sp := decl.factory()
	if err := sp.Open(rt.ctx(decl.name, tk.index, decl.parallelism), col); err != nil {
		rt.onError(decl.name, fmt.Errorf("open: %w", err))
		return
	}
	defer func() { sp.Close() }()
	for {
		select {
		case <-rt.spoutStop:
			return
		case m := <-tk.ctrl:
			if m == ctrlRestart {
				col.flushAll() // the old instance's emissions leave first
				sp.Close()
				sp = decl.factory()
				tk.restarts.Add(1)
				if err := sp.Open(rt.ctx(decl.name, tk.index, decl.parallelism), col); err != nil {
					rt.onError(decl.name, fmt.Errorf("reopen: %w", err))
					return
				}
			}
		default:
			if rt.paused.Load() {
				// A rebalance is draining the topology: flush everything,
				// report this spout parked, and idle until resumed. The
				// loop re-enters the select each iteration so stop and
				// restart signals are still honored while parked.
				col.flushAll()
				rt.pausedSpouts.Add(1)
				for rt.paused.Load() {
					select {
					case <-rt.spoutStop:
						rt.pausedSpouts.Add(-1)
						return
					default:
						time.Sleep(50 * time.Microsecond)
					}
				}
				rt.pausedSpouts.Add(-1)
				continue
			}
			e0 := col.emitted
			if !sp.NextTuple() {
				return
			}
			// Idle poll (nothing emitted) or linger expiry: hand over
			// whatever is buffered so trickle traffic is not delayed.
			// Local counters are folded too even when the buffers are
			// empty (threshold flushes may have drained them), so
			// metric readers like System.Drain never see an idle spout
			// with emissions unaccounted for.
			if (col.buffered > 0 || col.emitted != 0) && (col.emitted == e0 || time.Since(col.lastFlush) >= rt.linger) {
				col.flushAll()
			}
		}
	}
}

// execBatch runs the bolt over one received batch, timing each tuple's
// Execute into the task's latency histogram and releasing each tuple to
// the free list after execution. Timing is chained — the clock is read
// once per tuple, each read serving as the previous tuple's end and the
// next one's start — so per-tuple percentiles cost one monotonic clock
// read plus a lock-free histogram observe per tuple.
func (rt *runtime) execBatch(decl *boltDecl, b Bolt, col *collector, batch []*Tuple) {
	now := obsv.Now()
	for _, tup := range batch {
		tr := tup.trace
		col.curTrace = tr
		err := b.Execute(tup)
		end := obsv.Now()
		col.sm.exec.Observe(end - now)
		if tr != nil {
			tr.AddSpan(col.task.component, tup.traceEnq, now, end)
		}
		if err != nil {
			col.errors++
			rt.onError(decl.name, err)
		}
		// A tick's emissions leave with the tick: they are handed downstream
		// before the round is told the tick has executed (Tuple.release), so
		// the next component's tick, and under backlog this task's next
		// sixteen batches, come after what the flush produced.
		if tup.tickDone != nil {
			col.flushEmits()
		}
		tup.release()
		now = end
	}
	col.curTrace = nil
	col.executed += int64(len(batch))
	col.released += int64(len(batch))
}

// dropBatch disposes of one unexecuted batch: tuples are released and the
// dropped data tuples are counted per component. What they carried is lost
// to this process; checkpoint replay is what recovers it (DESIGN.md §11).
func (rt *runtime) dropBatch(tk *task, batch []*Tuple) {
	dropped := 0
	for _, tup := range batch {
		if !tup.IsTick() {
			dropped++
		}
		tup.release()
	}
	if dropped > 0 {
		rt.metrics.component(tk.component).dropped.Add(int64(dropped))
	}
	rt.pending.Add(-int64(len(batch)))
}

// drainInput unblocks upstream senders after a failed Prepare: batches
// are consumed and dropped without execution until the queue closes.
func (rt *runtime) drainInput(tk *task) {
	for batch := range tk.in {
		rt.dropBatch(tk, batch)
	}
}

// restartBolt swaps in a fresh bolt instance after simulated worker
// failure: the instance and all its in-memory state are discarded; a
// fresh stateless instance resumes from the same queue (§3.1, §3.3).
// On a failed re-Prepare the caller must dispose of any batch it holds
// and then drain the queue; restartBolt cannot drain itself, because a
// batch still in the caller's hands would keep the topology from ever
// quiescing.
func (rt *runtime) restartBolt(decl *boltDecl, tk *task, col *collector, b Bolt) (Bolt, bool) {
	col.retireBolt(b)
	nb := decl.factory()
	tk.restarts.Add(1)
	if err := nb.Prepare(rt.ctx(decl.name, tk.index, len(rt.taskList(decl.name))), col); err != nil {
		rt.onError(decl.name, fmt.Errorf("re-prepare: %w", err))
		col.flushAll() // do not strand pre-crash emissions
		return nil, false
	}
	col.flusher, _ = nb.(BatchFlusher)
	return nb, true
}

// runBoltTask drives one bolt instance until its input channel closes.
// It iterates whole batches per channel receive and keeps consuming as
// long as input is immediately available, flushing its own emissions
// when the queue momentarily empties.
func (rt *runtime) runBoltTask(decl *boltDecl, tk *task) {
	defer rt.taskWG.Done()
	defer close(tk.done) // after the flushAll below: retirement waits on it
	col := newCollector(tk, rt)
	defer col.flushAll()
	b := decl.factory()
	if err := b.Prepare(rt.ctx(decl.name, tk.index, len(rt.taskList(decl.name))), col); err != nil {
		rt.onError(decl.name, fmt.Errorf("prepare: %w", err))
		rt.drainInput(tk)
		return
	}
	col.flusher, _ = b.(BatchFlusher)
	defer func() {
		if b != nil { // nil after a failed restart; the old instance was cleaned up
			col.retireBolt(b)
		}
	}()
	for {
		select {
		case m := <-tk.ctrl:
			if m == ctrlRestart {
				var ok bool
				if b, ok = rt.restartBolt(decl, tk, col, b); !ok {
					rt.drainInput(tk)
					return
				}
			}
		case batch, ok := <-tk.in:
			if !ok {
				return
			}
			streak := 0
			for batch != nil {
				// Poll for a restart between batches so fault injection
				// is not starved while the queue stays busy.
				select {
				case m := <-tk.ctrl:
					if m == ctrlRestart {
						var okr bool
						if b, okr = rt.restartBolt(decl, tk, col, b); !okr {
							rt.dropBatch(tk, batch) // the batch in hand is dropped too
							rt.drainInput(tk)
							return
						}
					}
				default:
				}
				rt.execBatch(decl, b, col, batch)
				if streak++; streak >= metricsFlushBatches {
					col.flushAll()
					streak = 0
				}
				select {
				case batch, ok = <-tk.in:
					if !ok {
						return // defer flushes metrics; buffers are empty at close
					}
				default:
					batch = nil
				}
			}
			col.flushAll()
		}
	}
}

// runTicker is the topology's one ticker. A bolt's tick period is a ceiling,
// the longest what it staged waits, not a schedule. The ticker sleeps until
// the earliest ticked bolt's period runs out and runs one tickRound over the
// bolts due by then (cause "period"); but when the pipeline goes idle first
// over data that entered since the last idle round (the in-flight count
// reaches zero and collector.flushAll nudges rt.idle), the round runs at once
// (cause "idle") over every bolt whose previous tick is at least one
// idleTickFraction-th of its own period old, provided the count is still
// zero as the round starts. A nudge that comes sooner than that re-arms the
// timer for the moment the sixteenth has passed, and an idle tick restarts
// the bolt's period. "Data" is a spout delivery: what a flush emits does not
// set rt.entered, so no round feeds the next and an idle topology ticks at
// its period and no faster. Behind a backlog the count does not reach zero,
// no idle round runs, and the combiner window stays the period.
//
// A bolt whose period ran out again while a round waited is ticked again at
// once, and later ones are dropped, as a time.Ticker does for a slow
// receiver.
func (rt *runtime) runTicker() {
	defer rt.tickerWG.Done()
	// next is when each bolt's period runs out: one period after its last
	// tick (or the start), so early is a sixteenth after that tick.
	next := make(map[*boltDecl]time.Time, len(rt.ticked))
	start := time.Now()
	for _, d := range rt.ticked {
		next[d] = start.Add(d.tick)
	}
	period := func(d *boltDecl) time.Time { return next[d] }
	early := func(d *boltDecl) time.Time { return next[d].Add(d.tick/idleTickFraction - d.tick) }
	// passed reports whether the moment at names has come for any bolt.
	passed := func(at func(*boltDecl) time.Time, now time.Time) bool {
		for _, d := range rt.ticked {
			if !at(d).After(now) {
				return true
			}
		}
		return false
	}
	// The next wake-up: the earliest period to run out or, with data waiting
	// for an idle round, the earliest sixteenth still ahead (one already
	// passed waits for the nudge).
	untilNext := func() time.Duration {
		now := time.Now()
		wake := next[rt.ticked[0]]
		for _, d := range rt.ticked[1:] {
			if next[d].Before(wake) {
				wake = next[d]
			}
		}
		if rt.entered.Load() {
			for _, d := range rt.ticked {
				if e := early(d); e.After(now) && e.Before(wake) {
					wake = e
				}
			}
		}
		return wake.Sub(now)
	}
	timer := time.NewTimer(untilNext())
	defer timer.Stop()
	for {
		select {
		case <-rt.tickerStop:
			return
		case <-timer.C:
		case <-rt.idle:
		}
		now := time.Now()
		limit, cause := period, tickPeriod
		if passed(early, now) && rt.claimIdle() {
			limit = early
			if !passed(period, now) {
				cause = tickIdle
			}
		}
		if passed(limit, now) {
			due := func(d *boltDecl) bool { return !limit(d).After(now) }
			rt.countedRound(cause, due, false, false)
			end := time.Now()
			for _, d := range rt.ticked {
				if !due(d) {
					continue
				}
				if next[d].After(now) {
					next[d] = now.Add(d.tick) // ticked early: the period restarts here
				} else {
					next[d] = next[d].Add(d.tick)
				}
				if next[d].Before(end) {
					next[d] = end
				}
			}
		}
		timer.Reset(untilNext())
	}
}

// claimIdle reports whether an idle round may start now: data has entered
// since the last one and nothing is in flight. It clears entered before it
// reads the count, the reverse of a spout delivery (collector.send), so at
// zero every delivery marked before the claim has been executed and what it
// staged is there for the round's ticks to flush; one that comes after marks
// entered again.
func (rt *runtime) claimIdle() bool {
	if !rt.entered.Load() {
		return false
	}
	rt.entered.Store(false)
	if rt.pending.Load() == 0 {
		return true
	}
	rt.entered.Store(true)
	return false
}

// tickRound is the one place ticks are delivered: the ticker's period and
// idle rounds, Quiesce, the rebalance pre-flush and the shutdown cascade all
// run it (through countedRound). It sends one
// tick to every task of each ticked bolt that due selects (nil selects all),
// walking the bolts in Topology.order, and delivers a component's tick only
// after every task of the component before it has executed its own. That
// order is a contract (DESIGN.md §10 "Tick order"): a bolt may read, through
// the store, keys that a bolt earlier in the order writes in its tick.
// Nothing is ordered after the last component, so a live round does not
// wait for it: behind a backlog its ticks queue up, or are skipped, while
// the components before it keep their interval.
//
// A live round (frozen false) never blocks on a full queue: the saturated
// task's tick is skipped and counted in ticksSkipped, and the round moves
// on. A tick that was queued but then dropped unexecuted (a failed
// re-Prepare draining the queue) releases the round too. With the topology
// frozen — spouts parked or exhausted, the caller serialized against
// rebalance — sends block, so no tick is ever skipped, and the round waits
// for quiescence after every component, so what a flush emitted has been
// executed downstream before the next component's tick fires and before
// the round returns. final marks the ticks as the shutdown flush
// (Tuple.IsFinalTick); without it the bolts take them for regular interval
// ticks and keep running.
//
// The wait holds neither tickGate nor rebalanceMu; tickGate is held only
// around one component's sends, so the task list loaded there cannot have
// its channels closed mid-loop by a rebalance.
func (rt *runtime) tickRound(due func(*boltDecl) bool, final, frozen bool) {
	var executed sync.WaitGroup
	for _, decl := range rt.ticked {
		if due != nil && !due(decl) {
			continue
		}
		executed.Wait() // the ticks of the component before
		// One shared single-tuple batch per component: consumers only read
		// it and the tick tuple is unpooled.
		tick := &Tuple{Component: decl.name, Stream: TickStream, tickDone: &executed}
		if final {
			tick.Values = Values{"final"}
		}
		batch := []*Tuple{tick}
		rt.tickGate.RLock()
		for _, tk := range rt.taskList(decl.name) {
			rt.pending.Add(1)
			executed.Add(1)
			if frozen {
				tk.in <- batch
				continue
			}
			select {
			case tk.in <- batch:
			default:
				rt.pending.Add(-1)
				executed.Done()
				rt.metrics.component(decl.name).ticksSkipped.Add(1)
			}
		}
		rt.tickGate.RUnlock()
		if frozen {
			rt.waitQuiescent()
		}
	}
}

// countedRound is tickRound counted by what started it and timed
// (stream_tick_rounds_total, stream_tick_round_seconds) as it returns: a
// live round when its last component's ticks have been sent, a frozen one
// when they have drained.
func (rt *runtime) countedRound(cause tickCause, due func(*boltDecl) bool, final, frozen bool) {
	began := obsv.Now()
	rt.tickRound(due, final, frozen)
	rt.metrics.tickRounds[cause].Add(1)
	rt.metrics.tickRoundTime.Observe(obsv.Now() - began)
}

// waitQuiescent blocks until no tuples are queued or executing, backing
// off exponentially from 10µs to 2ms so an idle topology does not spin.
func (rt *runtime) waitQuiescent() {
	const maxBackoff = 2 * time.Millisecond
	d := 10 * time.Microsecond
	for rt.pending.Load() != 0 {
		time.Sleep(d)
		if d < maxBackoff {
			d *= 2
			if d > maxBackoff {
				d = maxBackoff
			}
		}
	}
}

// Run executes the topology until every spout reports exhaustion and all
// in-flight tuples have drained, then flushes tick-driven bolts and shuts
// down. Cancelling ctx stops the spouts early; the drain and flush still
// run so results are complete with respect to consumed input.
//
// Run returns the final metrics snapshot.
func (t *Topology) Run(ctx context.Context) (*MetricsSnapshot, error) {
	rt := newRuntime(t, nil)
	return rt.run(ctx)
}

// RunWithErrorHandler is Run with a callback invoked on component errors.
func (t *Topology) RunWithErrorHandler(ctx context.Context, onError func(component string, err error)) (*MetricsSnapshot, error) {
	rt := newRuntime(t, onError)
	return rt.run(ctx)
}

func (rt *runtime) run(ctx context.Context) (*MetricsSnapshot, error) {
	st := rt.start(ctx)
	st.Wait()
	return st.Metrics(), nil
}

// start launches all tasks and returns a handle for supervision.
func (rt *runtime) start(ctx context.Context) *RunningTopology {
	t := rt.topo
	for _, b := range t.bolts {
		for _, tk := range rt.taskList(b.name) {
			rt.taskWG.Add(1)
			go rt.runBoltTask(b, tk)
		}
	}
	if len(rt.ticked) > 0 {
		rt.tickerWG.Add(1)
		go rt.runTicker()
	}
	for _, s := range t.spouts {
		for _, tk := range rt.taskList(s.name) {
			rt.spoutWG.Add(1)
			go rt.runSpoutTask(s, tk)
		}
	}
	h := &RunningTopology{rt: rt, done: make(chan struct{})}
	go func() {
		if ctx != nil {
			go func() {
				select {
				case <-ctx.Done():
					h.Stop()
				case <-h.done:
				}
			}()
		}
		rt.spoutWG.Wait()    // all spouts exhausted or stopped
		rt.waitQuiescent()   // all regular tuples drained
		close(rt.tickerStop) // no more interval ticks
		rt.tickerWG.Wait()
		rt.waitQuiescent()
		// Block any further rebalance before tearing the task set down.
		rt.rebalanceMu.Lock()
		rt.closed = true
		rt.rebalanceMu.Unlock()
		rt.countedRound(tickControl, nil, true, true) // cascade final combiner flushes
		for _, name := range t.Components() {
			ct := rt.comps[name]
			if !ct.isSpout {
				for _, tk := range ct.tasks() {
					close(tk.in)
				}
			}
		}
		rt.taskWG.Wait()
		close(h.done)
	}()
	return h
}

// Rebalance changes the live parallelism of a bolt while the topology
// runs, the analog of Storm's `rebalance` command (§3.1 operations).
// See runtime.rebalance for the protocol.
func (h *RunningTopology) Rebalance(component string, parallelism int) error {
	return h.rt.rebalance(component, parallelism)
}

// Parallelism reports the component's current live task count (which a
// Rebalance may have changed since build time), or 0 if unknown.
func (h *RunningTopology) Parallelism(component string) int {
	ct, ok := h.rt.comps[component]
	if !ok {
		return 0
	}
	return len(ct.tasks())
}

// Rebalances reports how many rebalances have completed on this topology.
func (h *RunningTopology) Rebalances() int64 { return h.rt.rebalances.Load() }

// freeze parks every spout, each flushing its collector first, and waits
// until nothing is queued or executing. The caller holds rebalanceMu and
// un-pauses.
func (rt *runtime) freeze() {
	rt.paused.Store(true)
	for rt.pausedSpouts.Load() < rt.activeSpouts.Load() {
		time.Sleep(50 * time.Microsecond)
	}
	rt.waitQuiescent()
}

// Quiesce parks every spout, drains all in-flight tuples, tick-flushes
// combiner bolts downstream, runs fn while the pipeline is frozen, and
// resumes polling when fn returns. While fn runs no spout polls or
// commits and no tuple is queued or executing, so external state written
// by the bolts is exact with respect to the spouts' consumed input —
// the consistency point a checkpoint needs to capture store state and
// consumer offsets together. Serialized with Rebalance and shutdown;
// fn's error is returned verbatim.
func (h *RunningTopology) Quiesce(fn func() error) error {
	rt := h.rt
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	if rt.closed {
		return fmt.Errorf("stream: topology already shut down")
	}
	defer rt.paused.Store(false)
	rt.freeze()
	// Push buffered combiner aggregates downstream with regular ticks: the
	// bolts keep running.
	rt.countedRound(tickControl, nil, false, true)
	return fn()
}

// rebalance retargets one bolt to n fresh tasks without losing or
// double-processing a single in-flight tuple:
//
//  1. Pause every spout and wait until each has flushed its collector and
//     parked, then wait for the topology to drain (pending == 0). By the
//     enqueue-before-release invariant (DESIGN.md §10), a drained topology has
//     no tuple in any queue, any collector buffer, or any bolt's hands.
//  2. Tick-flush the component (combiner bolts push buffered aggregates
//     downstream on ticks) and drain again, so no in-memory aggregate
//     state is lost when the old instances retire.
//  3. Under the tick gate, close the old tasks' input channels, wait for
//     each goroutine to exit (its deferred flushAll has run), fold the
//     retired generation's metrics shards into the component accumulator,
//     and install the new assignment. No emitter can observe the swap
//     mid-flight: all collectors are parked with empty buffers, and
//     edgeBuf.sync adopts the new assignment on the next emit.
//  4. Spawn the new tasks and resume the spouts.
//
// Spouts cannot be rebalanced: their task count is bound to external
// input partitioning (consumer-group offsets), not to routing.
func (rt *runtime) rebalance(component string, n int) error {
	if n <= 0 {
		return fmt.Errorf("stream: rebalance %q: parallelism must be >= 1, got %d", component, n)
	}
	if n > NumPartitions {
		return fmt.Errorf("stream: rebalance %q: parallelism %d exceeds the %d logical partitions", component, n, NumPartitions)
	}
	ct, ok := rt.comps[component]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownComponent, component)
	}
	if ct.isSpout {
		return fmt.Errorf("stream: cannot rebalance spout %q (spout parallelism is bound to input partitioning)", component)
	}
	var decl *boltDecl
	for _, b := range rt.topo.bolts {
		if b.name == component {
			decl = b
		}
	}
	rt.rebalanceMu.Lock()
	defer rt.rebalanceMu.Unlock()
	if rt.closed {
		return fmt.Errorf("stream: topology already shut down")
	}
	old := ct.assign.Load()
	if len(old.tasks) == n {
		return nil // already at the requested parallelism
	}

	// 1. Park the spouts and drain the pipeline.
	defer rt.paused.Store(false)
	rt.freeze()

	// 2. Flush the component's buffered aggregates downstream. A regular
	// tick (no "final" marker) leaves combiners running; they simply emit
	// what they hold, which the fresh instances will not have.
	rt.countedRound(tickControl, func(d *boltDecl) bool { return d == decl }, false, true)

	// 3. Retire the old generation under the tick gate.
	rt.tickGate.Lock()
	for _, tk := range old.tasks {
		close(tk.in)
	}
	for _, tk := range old.tasks {
		<-tk.done
	}
	rt.metrics.component(component).fold(n)
	next := newAssignment(rt.newTasks(component, n, false))
	ct.assign.Store(next)
	rt.tickGate.Unlock()

	// 4. Spawn the new generation and resume.
	for _, tk := range next.tasks {
		rt.taskWG.Add(1)
		go rt.runBoltTask(decl, tk)
	}
	rt.ensureQueueGauges(component, n)
	rt.rebalances.Add(1)
	return nil
}

// RunningTopology is a handle to an executing topology: it supports
// waiting for completion, early stop, and supervisor-style fault
// injection (task restarts).
type RunningTopology struct {
	rt       *runtime
	done     chan struct{}
	stopOnce sync.Once
}

// Wait blocks until the topology has fully shut down.
func (h *RunningTopology) Wait() { <-h.done }

// Done returns a channel closed when the topology has shut down.
func (h *RunningTopology) Done() <-chan struct{} { return h.done }

// Stop asks the spouts to stop; processing drains and flushes as in a
// normal completion.
func (h *RunningTopology) Stop() {
	h.stopOnce.Do(func() { close(h.rt.spoutStop) })
}

// RestartTask simulates a worker crash-and-restart of one task of the
// named component: the current instance is discarded with all in-memory
// state and a fresh instance from the factory takes over the same queue.
// This reproduces the paper's fail-fast, state-free worker model (§3.1).
func (h *RunningTopology) RestartTask(component string, index int) error {
	ct, ok := h.rt.comps[component]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownComponent, component)
	}
	tasks := ct.tasks()
	if index < 0 || index >= len(tasks) {
		return fmt.Errorf("stream: component %q has no task %d", component, index)
	}
	select {
	case tasks[index].ctrl <- ctrlRestart:
		return nil
	case <-h.done:
		return fmt.Errorf("stream: topology already shut down")
	}
}

// Restarts reports how many times the given task has been restarted.
// Counts reset when a rebalance replaces the component's tasks.
func (h *RunningTopology) Restarts(component string, index int) int64 {
	ct, ok := h.rt.comps[component]
	if !ok {
		return 0
	}
	tasks := ct.tasks()
	if index < 0 || index >= len(tasks) {
		return 0
	}
	return tasks[index].restarts.Load()
}

// InFlight reports how many tuples (interval ticks included) are queued
// or executing right now — the count waitQuiescent polls. Zero means every
// emitted tuple has been executed, its staged writes flushed (or the
// failed flush reported and counted in the component's errors; see
// BatchFlusher) and its emissions executed in turn; it says nothing about
// deltas a combiner bolt holds until its next tick.
func (h *RunningTopology) InFlight() int64 { return h.rt.pending.Load() }

// Metrics returns a point-in-time snapshot of the topology metrics.
func (h *RunningTopology) Metrics() *MetricsSnapshot { return h.rt.metrics.snapshot() }

// Submit starts the topology without blocking and returns its handle.
// It is the engine's equivalent of submitting a topology to a Storm
// cluster; the topology "will process messages forever unless it is
// killed" (§5.1) — here, until Stop is called or the spouts exhaust.
func (t *Topology) Submit() *RunningTopology {
	rt := newRuntime(t, nil)
	return rt.start(nil)
}

// SubmitWithErrorHandler is Submit with an error callback.
func (t *Topology) SubmitWithErrorHandler(onError func(string, error)) *RunningTopology {
	rt := newRuntime(t, onError)
	return rt.start(nil)
}
