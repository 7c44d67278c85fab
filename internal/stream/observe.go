package stream

import (
	"strconv"

	"tencentrec/internal/obsv"
)

// registerObservability binds a running topology's metrics into an obsv
// Registry. Everything is registered as exposition-time callbacks over
// state the engine already maintains (the per-task metrics shards and
// input channels), so enabling Prometheus exposition adds zero hot-path
// cost beyond what the engine pays anyway. Re-submitting a topology with
// the same registry re-binds the callbacks to the new runtime — the
// ...Func registrations replace their predecessors.
func (rt *runtime) registerObservability(r *obsv.Registry) {
	rt.registry = r
	for name, cm := range rt.metrics.components {
		cm := cm
		r.CounterFunc("stream_emitted_total",
			"Rows emitted by the component on any stream (a plain tuple is one row, a run as many as it holds).",
			func() int64 {
				return cm.sum(
					func(c *componentMetrics) int64 { return c.foldedEmitted },
					func(sh *metricsShard) int64 { return sh.emitted.Load() })
			},
			"component", name)
		r.CounterFunc("stream_executed_total",
			"Execute calls of the component, ticks included (one per delivered tuple, whatever its run holds).",
			func() int64 {
				return cm.sum(
					func(c *componentMetrics) int64 { return c.foldedExecuted },
					func(sh *metricsShard) int64 { return sh.executed.Load() })
			},
			"component", name)
		r.CounterFunc("stream_errors_total",
			"Execute calls that returned an error.",
			func() int64 {
				return cm.sum(
					func(c *componentMetrics) int64 { return c.foldedErrors },
					func(sh *metricsShard) int64 { return sh.errors.Load() })
			},
			"component", name)
		r.CounterFunc("stream_dropped_total",
			"Data tuples discarded without execution (failed restart drain).",
			func() int64 { return cm.dropped.Load() },
			"component", name)
		r.CounterFunc("stream_ticks_skipped_total",
			"Interval ticks dropped because a task queue was full.",
			func() int64 { return cm.ticksSkipped.Load() },
			"component", name)
		r.CounterFunc("stream_flush_nanos_total",
			"Cumulative nanoseconds spent in the component's write-behind flush hook.",
			func() int64 {
				return cm.sum(
					func(c *componentMetrics) int64 { return c.foldedFlushNanos },
					func(sh *metricsShard) int64 { return sh.flushNanos.Load() })
			},
			"component", name)
		r.HistogramFunc("stream_execute_seconds",
			"Per-call Execute latency, merged across the component's tasks.",
			cm.execSnapshot,
			"component", name)
	}
	r.CounterFunc("stream_transferred_total",
		"Tuple deliveries across all edges (a replicated tuple or a split run counted per destination task).",
		func() int64 {
			var n int64
			for _, cm := range rt.metrics.components {
				n += cm.sum(
					func(c *componentMetrics) int64 { return c.foldedTransferred },
					func(sh *metricsShard) int64 { return sh.transferred.Load() })
			}
			return n
		})
	for name, ct := range rt.comps {
		ct := ct
		r.GaugeFunc("stream_tasks",
			"Live task count of the component (changes on rebalance).",
			func() int64 { return int64(len(ct.tasks())) },
			"component", name)
		rt.ensureQueueGauges(name, len(ct.tasks()))
	}
	for cause, name := range tickCauseNames {
		n := &rt.metrics.tickRounds[cause]
		r.CounterFunc("stream_tick_rounds_total",
			"Tick rounds run, by what started them: a bolt's period running out, the pipeline going idle over new data, or the control plane (quiesce, rebalance, shutdown).",
			n.Load,
			"cause", name)
	}
	r.HistogramFunc("stream_tick_round_seconds",
		"Duration of a tick round: until its last component's ticks were sent, for a control round until they had drained.",
		rt.metrics.tickRoundTime.Snapshot)
	r.CounterFunc("stream_rebalances_total",
		"Completed live rebalances on this topology.",
		func() int64 { return rt.rebalances.Load() })
}

// ensureQueueGauges registers per-task queue-depth gauges for task
// indexes [0, n). A rebalance that scales a component past its previous
// maximum calls this again for the new indexes; gauges for indexes above
// the current task count read 0. Each gauge re-resolves the task through
// the component's live assignment, so retired generations are never read.
func (rt *runtime) ensureQueueGauges(name string, n int) {
	if rt.registry == nil {
		return
	}
	if n <= rt.gaugeMax[name] {
		return
	}
	ct := rt.comps[name]
	for i := rt.gaugeMax[name]; i < n; i++ {
		i := i
		rt.registry.GaugeFunc("stream_queue_depth_batches",
			"Batches waiting in a task's input queue.",
			func() int64 {
				tasks := ct.tasks()
				if i >= len(tasks) {
					return 0
				}
				return int64(len(tasks[i].in))
			},
			"component", name, "task", strconv.Itoa(i))
	}
	rt.gaugeMax[name] = n
}
