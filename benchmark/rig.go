package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tencentrec"
	"tencentrec/internal/obsv"
	"tencentrec/internal/topology"
)

// flushInterval is the combiner tick of every benchmarked system (the
// topology default, pinned here because the quiescence window and the
// freshness floor both derive from it).
const flushInterval = 100 * time.Millisecond

// rig is one open System plus what the harness must remember about the
// traffic it sent: how many actions, their event clock, and the
// per-item popularity a sequential reference would hold.
type rig struct {
	sys   *tencentrec.System
	shape shape
	dir   string
	// base + seq×step is the next action's event time. base is set so the
	// run's last generated action lands near the wall clock.
	base time.Time
	seq  int64
	// published counts successful Publish calls; pubErrs the failures.
	// Atomic because the publisher and the prober both publish.
	published atomic.Int64
	pubErrs   atomic.Int64
	// ref is the sequential reference for the DB chain: Σ action weight
	// per item in the global group. Every benchmark action is a click
	// (weight 1), so a count suffices.
	ref map[string]float64
	q   quiescer
}

// openRig opens a fresh System for the workload in a new directory under
// parent. The directory's name is not derived from anything that can
// repeat (a process id does, in a container): a system opened on the
// files a killed run left behind would replay that run's broker log.
func openRig(w workload, parent string, traceEvery int, span time.Duration) (*rig, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "sys-")
	if err != nil {
		return nil, err
	}
	sys, err := tencentrec.Open(tencentrec.SystemConfig{
		DataDir:     dir,
		StoreEngine: w.engine,
		Params:      w.shape.params(),
		TraceEvery:  traceEvery,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open system: %w", err)
	}
	r := &rig{
		sys:   sys,
		shape: w.shape,
		dir:   dir,
		base:  time.Now().Add(-span),
		ref:   make(map[string]float64),
	}
	r.q = newQuiescer(sys)
	return r, nil
}

// close stops the system and removes its files.
func (r *rig) close() error {
	err := r.sys.Close()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// publish sends one generated action as a click at the next event time.
// Only the publisher goroutine calls it (it owns seq and ref); probes go
// through publishRaw and keep their own reference tally.
func (r *rig) publish(a action) {
	item := itemName(a.item)
	ts := r.base.Add(time.Duration(r.seq) * r.shape.step)
	r.seq++
	if r.publishRaw(userName(a.user), item, ts) {
		r.ref[item]++
	}
}

// publishRaw publishes one click and reports success.
func (r *rig) publishRaw(user, item string, ts time.Time) bool {
	err := r.sys.Publish(tencentrec.RawAction{User: user, Item: item, Action: "click", TS: ts.UnixNano()})
	if err != nil {
		r.pubErrs.Add(1)
		return false
	}
	r.published.Add(1)
	return true
}

// Every component but the spout is in one of two lists (a test holds the
// default system to that). untickedUnits receive no interval ticks, so
// their Executed counter moves only with data. tickedUnits execute one
// tick per flush interval even when idle, so theirs always moves, unless
// the task is inside one long Execute or the process is not running.
var (
	untickedUnits = []string{topology.UnitPretreatment, topology.UnitUserHistory, topology.UnitResultStorage}
	tickedUnits   = [...]string{topology.UnitItemCount, topology.UnitPairCount, topology.UnitDB}
)

// storeWriteOps are the TDStore client operations that change state.
var storeWriteOps = []string{"put", "incr", "batch_put", "delete"}

// quiescer detects that a System has finished all published work.
//
// System.Drain is not that signal: it returns once the spout has
// consumed everything plus a fixed sleep, while tuples are still queued
// between bolts (README "Findings"). The rule here: the spout has
// emitted every published action, and across a window of three flush
// intervals (combiner flush, similarity recheck, storage)
//
//   - nothing moved: tuples transferred, tuples emitted by any component,
//     tuples executed by the un-ticked components, store writes;
//   - every ticked component executed at least quiesceTicks times: it is
//     answering its ticks and finding nothing to flush, not held inside
//     one long flush;
//   - and at its end no batch waits in any task's input queue.
//
// The completion time is the first sample of that window.
//
// "Nothing moved" alone is not enough. Behind a backlog pairCount's tick
// flush covers a second of input or more (ticks are skipped while its
// queue is full), and it starts with one batched store read of every key
// the flush touches: for that long the task emits and writes nothing, its
// upstream is blocked on its full queue, and resultStorage has nothing to
// do. On a slow host that read outlasted the window, the bulk phase of
// ingest-dense ended with most of its tuples still queued, and the tail's
// probes waited seconds behind them (README "Findings"). A task inside a
// long Execute answers no ticks, and neither does a process the host has
// stopped, so the second condition holds the window open for both; the
// third covers an un-ticked task held in one Execute (a store write
// behind an LDB flush, say) with its input queued behind it.
type quiescer struct {
	sys    *tencentrec.System
	writes []*obsv.Histogram
}

func newQuiescer(sys *tencentrec.System) quiescer {
	q := quiescer{sys: sys}
	for _, op := range storeWriteOps {
		q.writes = append(q.writes, sys.Registry().Histogram("tdstore_op_seconds", "", "op", op))
	}
	return q
}

// mark is the activity fingerprint; every field only ever grows, so an
// unchanged sum means every addend is unchanged.
type mark struct {
	transferred, emitted, executed, writes int64
}

// ticks is each ticked component's Executed counter.
type ticks [len(tickedUnits)]int64

// answered reports whether every ticked component has executed at least
// n times since from.
func (t ticks) answered(from ticks, n int64) bool {
	for i := range t {
		if t[i]-from[i] < n {
			return false
		}
	}
	return true
}

func (q quiescer) sample() (m mark, t ticks, spoutEmitted int64) {
	snap := q.sys.Metrics()
	m.transferred = snap.Transferred
	for _, c := range snap.Components {
		m.emitted += c.Emitted
	}
	for _, u := range untickedUnits {
		m.executed += snap.Components[u].Executed
	}
	for i, u := range tickedUnits {
		t[i] = snap.Components[u].Executed
	}
	for _, h := range q.writes {
		m.writes += h.Snapshot().Count
	}
	return m, t, snap.Components[topology.UnitSpout].Emitted
}

// queued is how many batches wait in the tasks' input queues.
func (q quiescer) queued() int64 {
	return int64(readRegistry(q.sys.Registry())["stream_queue_depth_batches"])
}

const (
	quiesceWindow = 3 * flushInterval
	quiesceTicks  = 2 // of the three a window holds, for the ticker's jitter
	quiescePoll   = 5 * time.Millisecond
)

// quiet is the instant a quiet window began: the wall clock and the
// process CPU time used by then, so a phase's CPU stops where its clock
// does and leaves the window's polling out.
type quiet struct {
	at  time.Time
	cpu time.Duration
}

// wait blocks until the system is quiescent with at least published
// actions consumed and returns when the quiet window began.
func (q quiescer) wait(published int64, timeout time.Duration) (quiet, error) {
	deadline := time.Now().Add(timeout)
	var last mark
	var ticksAt ticks
	since := quiet{time.Now(), processCPU()}
	for {
		now := time.Now()
		m, t, consumed := q.sample()
		switch {
		case consumed < published || m != last:
			// Input still queued in the broker, or something moved: the
			// quiet window restarts here.
			last, ticksAt, since = m, t, quiet{now, processCPU()}
		case now.Sub(since.at) >= quiesceWindow && t.answered(ticksAt, quiesceTicks):
			if q.queued() == 0 {
				return since, nil
			}
			ticksAt, since = t, quiet{now, processCPU()}
		}
		if now.After(deadline) {
			return quiet{}, fmt.Errorf("no quiescence after %v: %d/%d consumed", timeout, consumed, published)
		}
		time.Sleep(quiescePoll)
	}
}
