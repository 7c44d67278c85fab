package stream

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tencentrec/internal/obsv"
)

// metricsShard holds one task's counters. Each task updates only its own
// shard, so the atomics are uncontended; the struct is padded to a cache
// line so neighbouring tasks never false-share. The hot path batches
// updates further: tasks accumulate plain local counters and fold them
// into the shard once per transport flush, not once per tuple — except
// exec, the per-tuple execute-latency histogram, whose lock-free Observe
// is cheap enough to take per tuple and which percentiles require
// (a folded sum cannot reconstruct a distribution).
type metricsShard struct {
	emitted     atomic.Int64
	executed    atomic.Int64
	errors      atomic.Int64
	transferred atomic.Int64
	// flushNanos is the time spent inside a BatchFlusher bolt's hook. It
	// is kept apart from exec, whose samples are Execute calls only.
	flushNanos atomic.Int64
	// exec observes per-tuple Execute latency in nanoseconds, errored
	// calls included. The histogram lives behind a pointer so the shard
	// array stays one cache line per task.
	exec *obsv.Histogram
	_    [16]byte // pad 5×8 counter bytes + pointer up to a 64-byte line
}

// componentMetrics holds the per-task shards of one component plus the
// folded totals of shards retired by past rebalances. mu guards the
// shards slice identity and the folded accumulators: readers
// (snapshot, exposition callbacks) take it shared, a rebalance's fold
// takes it exclusive. The hot path is untouched — tasks write through
// *metricsShard pointers captured at collector creation, no lock.
type componentMetrics struct {
	mu     sync.RWMutex
	shards []metricsShard
	// Retired-generation accumulators. A rebalance folds the outgoing
	// shards here before replacing the slice, so component totals are
	// continuous across task-count changes.
	foldedEmitted     int64
	foldedExecuted    int64
	foldedErrors      int64
	foldedTransferred int64
	foldedFlushNanos  int64
	foldedExec        obsv.HistogramSnapshot
	// ticksSkipped counts interval ticks dropped because a task queue
	// was full. Written only by the topology's ticker goroutine.
	ticksSkipped atomic.Int64
	// dropped counts data tuples a task discarded without executing them
	// (drainInput after a failed restart).
	dropped atomic.Int64
}

// fold retires the current shard generation into the accumulators and
// installs n fresh shards for the next generation. Callers must have
// already stopped every task writing to the current shards (rebalance
// folds only after each retired task's goroutine has exited).
func (cm *componentMetrics) fold(n int) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for i := range cm.shards {
		sh := &cm.shards[i]
		cm.foldedEmitted += sh.emitted.Load()
		cm.foldedExecuted += sh.executed.Load()
		cm.foldedErrors += sh.errors.Load()
		cm.foldedTransferred += sh.transferred.Load()
		cm.foldedFlushNanos += sh.flushNanos.Load()
		cm.foldedExec.Merge(sh.exec.Snapshot())
	}
	cm.shards = make([]metricsShard, n)
	for i := range cm.shards {
		cm.shards[i].exec = obsv.NewHistogram()
	}
}

// tickCause is what started a tick round: a bolt's period running out, the
// pipeline going idle over new data, or the control plane (Quiesce, the
// rebalance pre-flush, the shutdown cascade).
type tickCause int

const (
	tickPeriod tickCause = iota
	tickIdle
	tickControl
)

var tickCauseNames = [...]string{tickPeriod: "period", tickIdle: "idle", tickControl: "control"}

// Metrics aggregates live counters for a running topology.
type Metrics struct {
	components map[string]*componentMetrics
	started    time.Time
	// tickRounds counts completed tick rounds by cause and tickRoundTime
	// observes each one's duration in nanoseconds (runtime.countedRound).
	tickRounds    [len(tickCauseNames)]atomic.Int64
	tickRoundTime *obsv.Histogram
}

func newMetrics(t *Topology) *Metrics {
	m := &Metrics{components: make(map[string]*componentMetrics), started: time.Now(), tickRoundTime: obsv.NewHistogram()}
	for _, name := range t.Components() {
		cm := &componentMetrics{shards: make([]metricsShard, t.Parallelism(name))}
		for i := range cm.shards {
			cm.shards[i].exec = obsv.NewHistogram()
		}
		m.components[name] = cm
	}
	return m
}

// execSnapshot merges the per-task execute-latency histograms of one
// component — retired generations included — into a single distribution.
func (cm *componentMetrics) execSnapshot() obsv.HistogramSnapshot {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	s := cm.foldedExec
	for i := range cm.shards {
		s.Merge(cm.shards[i].exec.Snapshot())
	}
	return s
}

// sum reads one counter across the live shards plus its folded total.
func (cm *componentMetrics) sum(folded func(*componentMetrics) int64, read func(*metricsShard) int64) int64 {
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	n := folded(cm)
	for i := range cm.shards {
		n += read(&cm.shards[i])
	}
	return n
}

func (m *Metrics) component(name string) *componentMetrics { return m.components[name] }

// shard returns the counter shard owned by one task of a component.
func (m *Metrics) shard(name string, task int) *metricsShard {
	cm := m.components[name]
	cm.mu.RLock()
	defer cm.mu.RUnlock()
	return &cm.shards[task]
}

// ComponentStats is a snapshot of one component's counters.
type ComponentStats struct {
	// Emitted counts the rows the component emitted on any stream: a plain
	// tuple is one row, a Run as many as it holds, whether or not anything
	// subscribes.
	Emitted int64
	// Executed counts Execute calls, ticks included: a tuple is one call
	// however many rows its Run holds, and it is the count of the Execute
	// histogram behind AvgExecute.
	Executed int64
	// Errors counts Execute calls that returned an error.
	Errors int64
	// AvgExecute is the mean per-tuple Execute latency, derived from the
	// same histogram as the percentiles (Sum/Count), so the columns of a
	// snapshot are always mutually consistent. Errored Execute calls are
	// included: an error return still consumed the measured time, and
	// excluding it would make a failing component look faster than it is.
	AvgExecute time.Duration
	// P50Execute, P99Execute and MaxExecute are percentile estimates of
	// the per-tuple Execute latency, from power-of-two-bucketed
	// histograms (bucket-resolution estimates; MaxExecute is exact).
	P50Execute time.Duration
	P99Execute time.Duration
	MaxExecute time.Duration
	// FlushTime is the cumulative time the component's tasks spent in
	// their BatchFlusher hook: busy time on top of Executed × AvgExecute.
	// Zero for bolts without the hook.
	FlushTime time.Duration
	// TicksSkipped counts interval ticks dropped because the task's
	// input queue was full at tick time.
	TicksSkipped int64
	// Dropped counts data tuples discarded without execution when a task
	// failed to restart and drained its queue. Always zero on a healthy
	// run.
	Dropped int64
	// Tasks is the component's live task count at snapshot time, which a
	// Rebalance may have changed from the build-time parallelism.
	Tasks int
}

// MetricsSnapshot is a point-in-time view of topology metrics.
type MetricsSnapshot struct {
	// Transferred counts tuple deliveries across all edges: a tuple
	// replicated to n tasks, or a Run split over n tasks, counts n times.
	Transferred int64
	// Uptime is the time since the topology started.
	Uptime time.Duration
	// Components maps component name to its stats.
	Components map[string]ComponentStats
}

func (m *Metrics) snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{
		Uptime:     time.Since(m.started),
		Components: make(map[string]ComponentStats, len(m.components)),
	}
	for name, cm := range m.components {
		st := ComponentStats{
			TicksSkipped: cm.ticksSkipped.Load(),
			Dropped:      cm.dropped.Load(),
		}
		cm.mu.RLock()
		st.Tasks = len(cm.shards)
		st.Emitted = cm.foldedEmitted
		st.Executed = cm.foldedExecuted
		st.Errors = cm.foldedErrors
		st.FlushTime = time.Duration(cm.foldedFlushNanos)
		s.Transferred += cm.foldedTransferred
		for i := range cm.shards {
			sh := &cm.shards[i]
			st.Emitted += sh.emitted.Load()
			st.Executed += sh.executed.Load()
			st.Errors += sh.errors.Load()
			st.FlushTime += time.Duration(sh.flushNanos.Load())
			s.Transferred += sh.transferred.Load()
		}
		cm.mu.RUnlock()
		if exec := cm.execSnapshot(); exec.Count > 0 {
			st.AvgExecute = time.Duration(exec.Mean())
			st.P50Execute = time.Duration(exec.Quantile(0.50))
			st.P99Execute = time.Duration(exec.Quantile(0.99))
			st.MaxExecute = time.Duration(exec.Max)
		}
		s.Components[name] = st
	}
	return s
}

// String renders the snapshot as a fixed-width table, one component per
// line, for monitor output (§6.1's "monitor to get an overview").
func (s *MetricsSnapshot) String() string {
	names := make([]string, 0, len(s.Components))
	for n := range s.Components {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "uptime=%v transferred=%d\n", s.Uptime.Round(time.Millisecond), s.Transferred)
	fmt.Fprintf(&b, "%-24s %5s %12s %12s %8s %12s %12s %12s %10s %8s\n", "component", "tasks", "emitted", "executed", "errors", "avg-exec", "p50-exec", "p99-exec", "ticks-skip", "dropped")
	for _, n := range names {
		c := s.Components[n]
		fmt.Fprintf(&b, "%-24s %5d %12d %12d %8d %12v %12v %12v %10d %8d\n", n, c.Tasks, c.Emitted, c.Executed, c.Errors, c.AvgExecute, c.P50Execute, c.P99Execute, c.TicksSkipped, c.Dropped)
	}
	return b.String()
}
