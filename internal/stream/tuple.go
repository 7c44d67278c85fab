// Package stream implements a lightweight in-process distributed stream
// processing engine modelled on Apache Storm, which the TencentRec paper
// uses as its computation substrate (SIGMOD'15, §3.1 and §5.1).
//
// The engine reproduces the Storm semantics the paper's algorithms rely on:
//
//   - unbounded streams of field-named tuples produced by spouts and
//     transformed by bolts;
//   - stream groupings, in particular fields grouping, which guarantees
//     that all tuples sharing a key are processed by the same task —
//     the paper's "only a single worker node should operate over a
//     specific item pair at some point" (§4.1.3);
//   - per-component parallelism with independent tasks;
//   - stateless, restartable workers supervised by a cluster manager
//     (Nimbus/Supervisor in Storm, Supervisor here), so that all durable
//     state lives in an external store (TDStore) and a crashed task can
//     be relaunched "like nothing happened" (§3.1);
//   - tick tuples delivered at least once per interval, which drive the
//     combiner flushes of §5.3.
//
// Workers are goroutines rather than processes, and routing is by channel
// rather than by network, but the visible semantics — partitioning,
// ordering per key, at-most-one-writer per key, restartability — match.
//
// Tuples move between tasks in micro-batches: the collector accumulates
// routed tuples into per-destination buffers and hands a whole []*Tuple
// to the destination task per channel operation, amortizing the
// synchronization cost the same way the paper's combiner amortizes store
// writes (§5.3). See DESIGN.md for the flush rules.
package stream

import (
	"fmt"
	"strconv"
	"sync"

	"tencentrec/internal/obsv"
)

// Values is the payload of a tuple: an ordered list of field values.
type Values []interface{}

// Fields names the positions of a tuple's values, in order.
type Fields []string

// index returns the position of the named field, or -1.
func (f Fields) index(name string) int {
	for i, n := range f {
		if n == name {
			return i
		}
	}
	return -1
}

// DefaultStream is the stream id used when a component does not name one.
const DefaultStream = "default"

// TickStream is the reserved stream id on which the engine delivers tick
// tuples to bolts configured with a tick interval.
const TickStream = "__tick"

// Tuple is a single unit of data flowing through a topology.
//
// A *Tuple is one delivery: each destination task of an emission gets its
// own, which the engine recycles after Execute returns. A bolt that needs a
// field value beyond Execute must copy the value out (values obtained via
// Value/TryValue are safe to retain; the *Tuple itself and its Values slice,
// which the emission's other deliveries share, are not).
type Tuple struct {
	// Component is the name of the component that emitted the tuple.
	Component string
	// Stream is the id of the stream the tuple was emitted on.
	Stream string
	// Values holds the tuple payload.
	Values Values

	fields Fields

	// pooled marks tuples drawn from tuplePool, which release returns to
	// it. Tick tuples and hand-built tuples are never recycled.
	pooled bool

	// trace is the sampled trace this tuple's lineage belongs to (nil on
	// the vast majority of tuples) and traceEnq the obsv.Now() timestamp
	// at which the tuple was emitted toward its destination, recorded so
	// the executing task can attribute queue wait to a span.
	trace    *obsv.Trace
	traceEnq int64

	// tickDone, on a tick tuple, is the delivering round's count of ticks
	// not yet executed (or dropped); see runtime.tickRound.
	tickDone *sync.WaitGroup
}

// NewTuple builds a standalone (unpooled) tuple, for driving a component
// directly — typically a bolt's Execute in a unit test — without running
// a topology.
func NewTuple(component, streamID string, fields Fields, values Values) *Tuple {
	return &Tuple{Component: component, Stream: streamID, Values: values, fields: fields}
}

// tuplePool is the free list behind the allocation-free emit path.
var tuplePool = sync.Pool{New: func() interface{} { return new(Tuple) }}

// getTuple draws a recycled tuple from the free list.
func getTuple(component, stream string, values Values, fields Fields) *Tuple {
	t := tuplePool.Get().(*Tuple)
	t.Component, t.Stream, t.Values, t.fields = component, stream, values, fields
	t.pooled = true
	return t
}

// release recycles a tuple that has been executed (or dropped). An unpooled
// tuple is never recycled; an engine tick reports to the round that sent it.
func (t *Tuple) release() {
	if !t.pooled {
		if t.tickDone != nil {
			t.tickDone.Done()
		}
		return
	}
	*t = Tuple{}
	tuplePool.Put(t)
}

// IsTick reports whether the tuple is an engine-generated tick tuple.
func (t *Tuple) IsTick() bool { return t.Stream == TickStream }

// IsFinalTick reports whether the tuple is the final flush tick the
// engine delivers during orderly shutdown, after all regular tuples have
// drained. Bolts that publish derived values may use it to recompute
// everything against fully-settled inputs.
func (t *Tuple) IsFinalTick() bool {
	return t.Stream == TickStream && len(t.Values) == 1 && t.Values[0] == "final"
}

// Value returns the value of the named field.
// It panics if the field does not exist; use TryValue to probe.
func (t *Tuple) Value(field string) interface{} {
	v, ok := t.TryValue(field)
	if !ok {
		panic(fmt.Sprintf("stream: tuple from %s/%s has no field %q (fields %v)",
			t.Component, t.Stream, field, t.fields))
	}
	return v
}

// TryValue returns the value of the named field and whether it exists.
func (t *Tuple) TryValue(field string) (interface{}, bool) {
	i := t.fields.index(field)
	if i < 0 || i >= len(t.Values) {
		return nil, false
	}
	return t.Values[i], true
}

// Str returns the value of the named field as a string.
func (t *Tuple) Str(field string) string { s, _ := t.Value(field).(string); return s }

// FNV-1a, inlined so grouping never allocates a hash.Hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// hashValues computes a stable hash over the selected grouping fields,
// used by fields grouping to pick a destination task. The common scalar
// types are folded through a type switch that produces exactly the bytes
// fmt "%v" formatting would, without the reflection or the allocations.
func hashValues(t *Tuple, fields Fields) uint64 {
	h := uint64(fnvOffset64)
	for _, f := range fields {
		v, ok := t.TryValue(f)
		if !ok {
			continue
		}
		h = hashValue(h, v)
		h *= fnvPrime64 // fold the '\x00' field separator (h ^ 0 == h)
	}
	return h
}

// hashValue folds one grouping value into the running FNV-1a state.
// The scratch buffer stays on the stack, so the switch arms are
// allocation-free; only exotic value types fall back to fmt.
func hashValue(h uint64, v interface{}) uint64 {
	var scratch [32]byte
	switch x := v.(type) {
	case string:
		return fnvString(h, x)
	case int:
		return fnvBytes(h, strconv.AppendInt(scratch[:0], int64(x), 10))
	case int64:
		return fnvBytes(h, strconv.AppendInt(scratch[:0], x, 10))
	case int32:
		return fnvBytes(h, strconv.AppendInt(scratch[:0], int64(x), 10))
	case uint:
		return fnvBytes(h, strconv.AppendUint(scratch[:0], uint64(x), 10))
	case uint64:
		return fnvBytes(h, strconv.AppendUint(scratch[:0], x, 10))
	case uint32:
		return fnvBytes(h, strconv.AppendUint(scratch[:0], uint64(x), 10))
	case float64:
		return fnvBytes(h, strconv.AppendFloat(scratch[:0], x, 'g', -1, 64))
	case float32:
		return fnvBytes(h, strconv.AppendFloat(scratch[:0], float64(x), 'g', -1, 32))
	case bool:
		if x {
			return fnvString(h, "true")
		}
		return fnvString(h, "false")
	default:
		return fnvString(h, fmt.Sprintf("%v", x))
	}
}
