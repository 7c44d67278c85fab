package stream

// TopologyContext gives a component instance information about where it
// runs: which task index it is and how many sibling tasks exist.
type TopologyContext struct {
	// Component is the name this component was registered under.
	Component string
	// TaskIndex identifies this task among the component's tasks,
	// in [0, NumTasks).
	TaskIndex int
	// NumTasks is the component's parallelism.
	NumTasks int
}

// Collector is how bolts emit tuples downstream.
// Collectors are safe for use only from the owning task's goroutine,
// matching Storm's single-threaded executor model.
type Collector interface {
	// Emit sends values on the component's default stream.
	Emit(values Values)
	// EmitTo sends values on the named stream.
	EmitTo(stream string, values Values)
}

// SpoutCollector is how spouts emit tuples into the topology: the same
// emissions a bolt makes. A spout commits its input once a poll's batch is
// emitted; recovery across processes is checkpoint replay (DESIGN.md §11).
type SpoutCollector = Collector

// Spout produces the input streams of a topology (§5.1: "A spout is
// responsible for producing the input stream for a Storm cluster").
//
// Implementations must be created by a factory (see TopologyBuilder) so the
// supervisor can relaunch a fresh, state-free instance after a failure.
type Spout interface {
	// Open prepares the spout instance.
	Open(ctx TopologyContext, collector SpoutCollector) error
	// NextTuple emits zero or more tuples via the collector.
	// Returning false signals that the spout is exhausted; the engine
	// then drains the topology and shuts down. Production spouts that
	// never exhaust always return true.
	NextTuple() bool
	// Close releases spout resources.
	Close()
}

// Bolt consumes input streams and may emit new streams (§5.1: "A bolt may
// consume any number of input streams and transform those streams in some
// way").
//
// A bolt task is executed by exactly one goroutine, so Execute never runs
// concurrently with itself on the same instance.
type Bolt interface {
	// Prepare initializes the bolt instance.
	Prepare(ctx TopologyContext, collector Collector) error
	// Execute processes one input tuple. Tick tuples (t.IsTick())
	// are delivered on TickStream when the bolt is configured with a
	// tick interval.
	Execute(t *Tuple) error
	// Cleanup releases bolt resources on orderly shutdown.
	Cleanup()
}

// BatchFlusher is an optional Bolt hook for write-behind state: a bolt
// that stages the effects of Execute in memory implements it, and the
// engine calls FlushBatch on the task's goroutine, between Execute calls,
// at every point where the task's collector flushes — when the input
// queue momentarily empties, after every 16 consecutive batches under
// backlog, and before Cleanup when the task exits.
//
// Ordering contract: FlushBatch returns before the tuples executed since
// the previous flush are subtracted from the in-flight count. A drained
// topology (Quiesce, Rebalance, shutdown) therefore implies that every
// staged effect has been flushed — as long as no flush has failed. A
// returned error is counted and reported like an Execute error; the tuples
// leave the in-flight count all the same, as a tuple whose Execute failed
// does, and the engine does not call again until the task has more input
// or retires (it owns no timer). The bolt should therefore keep what it
// could not flush and retry on the next call, and a caller that reads
// "drained" as "written" must also see the component's error count
// unchanged. The in-flight count reaching zero is also what lets an idle
// tick round start (runtime.runTicker), so such a round finds everything
// the tuples before it staged already flushed. FlushBatch may be called
// with nothing staged, never after Cleanup.
type BatchFlusher interface {
	FlushBatch() error
}

// OutputDeclarer lists the streams a component emits with their fields.
// Components implement it so the engine can route by field name.
type OutputDeclarer interface {
	// DeclareOutputFields maps each emitted stream id to its field names.
	// Components that only use the default stream map DefaultStream.
	DeclareOutputFields() map[string]Fields
}

// BoltFunc adapts a function to the Bolt interface for simple stateless
// transforms. The declared output is a single default stream with the
// given fields.
type BoltFunc struct {
	// Fn processes each tuple.
	Fn func(t *Tuple, c Collector) error
	// Output names the fields of the default output stream; may be nil
	// for terminal bolts.
	Output Fields

	collector Collector
}

// Prepare implements Bolt.
func (b *BoltFunc) Prepare(_ TopologyContext, c Collector) error {
	b.collector = c
	return nil
}

// Execute implements Bolt.
func (b *BoltFunc) Execute(t *Tuple) error { return b.Fn(t, b.collector) }

// Cleanup implements Bolt.
func (b *BoltFunc) Cleanup() {}

// DeclareOutputFields implements OutputDeclarer.
func (b *BoltFunc) DeclareOutputFields() map[string]Fields {
	if b.Output == nil {
		return nil
	}
	return map[string]Fields{DefaultStream: b.Output}
}
