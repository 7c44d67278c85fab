package obsv

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// traceBase anchors Now(): span timestamps are monotonic-clock offsets
// from process start, immune to wall-clock steps.
var traceBase = time.Now()

// Now returns a monotonic timestamp in nanoseconds since process start,
// the clock all trace spans are recorded against.
func Now() int64 { return int64(time.Since(traceBase)) }

// DefaultTraceEvery is the default sampling rate of a Tracer: one
// sampled trace per this many Sample calls.
const DefaultTraceEvery = 1024

// DefaultTraceRing is the default number of completed-or-active traces a
// Tracer retains.
const DefaultTraceRing = 64

// maxSpansPerTrace bounds a trace's span list; spans beyond the bound
// are dropped so a pathological fan-out cannot grow a trace unboundedly.
const maxSpansPerTrace = 64

// Span is one stage's worth of work attributed to a trace: the tuple
// was enqueued for the stage at Enqueue, its execution ran [Start, End).
// All timestamps are Now()-clock nanoseconds. Queue wait is
// Start - Enqueue; execution cost is End - Start.
type Span struct {
	// Stage names the component (topology unit) that executed the work.
	Stage string `json:"stage"`
	// Enqueue is when the tuple was emitted toward the stage.
	Enqueue int64 `json:"enqueue"`
	// Start is when the stage began executing the tuple.
	Start int64 `json:"start"`
	// End is when the stage finished executing the tuple.
	End int64 `json:"end"`
}

// Trace accumulates the spans of one sampled tuple lineage as it moves
// through the topology. Spans are appended by whichever task executes a
// tuple carrying the trace, so appends are mutex-guarded — traces are
// rare (one per sampling interval) and the lock is uncontended in
// practice.
type Trace struct {
	// ID identifies the trace across exports.
	ID uint64
	// Start is when the trace was sampled at the spout.
	Start int64

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// AddSpan records one stage's execution. Spans beyond the per-trace
// bound are counted but not retained.
func (t *Trace) AddSpan(stage string, enqueue, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, Span{Stage: stage, Enqueue: enqueue, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot copies the trace for export, spans ordered by Start.
func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return TraceSnapshot{ID: t.ID, Start: t.Start, Spans: spans, Dropped: dropped}
}

// TraceSnapshot is an exported trace: its spans sorted by start time.
type TraceSnapshot struct {
	ID      uint64 `json:"id"`
	Start   int64  `json:"start"`
	Spans   []Span `json:"spans"`
	Dropped int    `json:"dropped,omitempty"`
}

// Tracer samples tuple traces at a fixed rate and retains the most
// recent ones in a bounded ring. Sample is the only hot-path entry
// point: the common (unsampled) case costs one atomic increment and a
// modulo.
type Tracer struct {
	every  uint64
	n      atomic.Uint64
	nextID atomic.Uint64

	mu   sync.Mutex
	ring []*Trace
	pos  int
}

// NewTracer returns a tracer sampling one trace per every calls, keeping
// the last ring traces. Non-positive arguments use the defaults
// (DefaultTraceEvery, DefaultTraceRing); every == 1 samples everything.
func NewTracer(every, ring int) *Tracer {
	if every <= 0 {
		every = DefaultTraceEvery
	}
	if ring <= 0 {
		ring = DefaultTraceRing
	}
	return &Tracer{every: uint64(every), ring: make([]*Trace, 0, ring)}
}

// Sample returns a new Trace on every N-th call and nil otherwise.
// Callers attach the returned trace to the sampled unit of work.
func (tr *Tracer) Sample() *Trace {
	if tr.every > 1 && tr.n.Add(1)%tr.every != 0 {
		return nil
	}
	t := &Trace{ID: tr.nextID.Add(1), Start: Now()}
	tr.mu.Lock()
	if len(tr.ring) < cap(tr.ring) {
		tr.ring = append(tr.ring, t)
	} else {
		tr.ring[tr.pos] = t
		tr.pos = (tr.pos + 1) % cap(tr.ring)
	}
	tr.mu.Unlock()
	return t
}

// Traces exports the retained traces, oldest first, each with its spans
// sorted by start time. Traces with no spans yet (sampled but not
// executed anywhere) are skipped.
func (tr *Tracer) Traces() []TraceSnapshot {
	tr.mu.Lock()
	all := make([]*Trace, 0, len(tr.ring))
	// ring[pos:] are the oldest entries once the ring has wrapped.
	all = append(all, tr.ring[tr.pos:]...)
	all = append(all, tr.ring[:tr.pos]...)
	tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, len(all))
	for _, t := range all {
		s := t.snapshot()
		if len(s.Spans) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteWaterfall renders traces as per-stage latency waterfalls: one
// block per trace, one line per span with its offset from the trace
// start, queue wait and execution time — the action→pretreatment→
// co-rating→similarity→storage breakdown the monitor prints.
func WriteWaterfall(w io.Writer, traces []TraceSnapshot) {
	for _, t := range traces {
		end := t.Start
		for _, s := range t.Spans {
			if s.End > end {
				end = s.End
			}
		}
		fmt.Fprintf(w, "trace %d  total %v  spans %d\n", t.ID, time.Duration(end-t.Start), len(t.Spans))
		for _, s := range t.Spans {
			fmt.Fprintf(w, "  %-24s +%-12v queue %-12v exec %v\n",
				s.Stage,
				time.Duration(s.Enqueue-t.Start),
				time.Duration(s.Start-s.Enqueue),
				time.Duration(s.End-s.Start))
		}
		if t.Dropped > 0 {
			fmt.Fprintf(w, "  (%d spans dropped beyond the per-trace bound)\n", t.Dropped)
		}
	}
}
