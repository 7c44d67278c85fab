// Package obsv is the repo's observability substrate: a metrics registry
// with allocation-free hot-path instruments (Counter, a lock-free
// power-of-two-bucketed Histogram), a sampled tuple Tracer, and
// exposition in Prometheus text format 0.0.4 and an expvar-style JSON
// dump.
//
// The paper's headline claim is latency — "seconds-level" freshness
// versus hours for batch CF (§1, §6.2) — which is unfalsifiable from
// averages alone. This package gives every layer (stream engine, TDStore
// client, TDAccess broker, HTTP serving) p50/p99/max visibility at a
// hot-path cost of a few nanoseconds and zero allocations per observe,
// so the instrumentation can stay on in the configurations the
// benchmarks measure.
//
// Design rules:
//
//   - Instruments are created once, at setup time, via the Registry;
//     the hot path only touches pre-resolved pointers (Counter.Add,
//     Histogram.Observe). Label resolution never happens per event.
//   - All instruments are safe for concurrent use; none take locks on
//     the write path.
//   - The ...Func variants (CounterFunc, GaugeFunc, HistogramFunc) read
//     their value through a callback at exposition time, for values a
//     subsystem already maintains (queue depths, backlogs, merged
//     per-task histograms) — zero hot-path cost.
//
// By convention, histograms observe int64 nanoseconds; families named
// with a `_seconds` suffix are scaled to seconds at exposition.
package obsv

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// kind is the exposition type of a metric family.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one label-set instance of a family. Exactly one of the
// value fields is set, matching the family kind and whether the series
// is direct or callback-backed.
type series struct {
	labels   []string // flattened k,v pairs, as given at registration
	labelStr string   // pre-rendered {k="v",...}, "" when unlabelled

	c  *Counter
	h  *Histogram
	cf func() int64
	gf func() int64
	hf func() HistogramSnapshot
}

// family groups the series of one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them for exposition.
// Registration is idempotent: asking for an existing (name, labels)
// series returns the same instrument, and re-registering a ...Func
// series replaces its callback (so a restarted topology re-binds its
// collectors). Registering the same name with a different kind panics —
// that is a setup bug, caught at wiring time, not in the hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey renders the canonical identity of a label set: pairs sorted
// by key, so registration order of labels does not split series.
func labelKey(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getSeries resolves (or creates) the series for name+labels, checking
// kind consistency. labels must be an even number of k,v strings.
func (r *Registry) getSeries(name, help string, k kind, labels []string) *series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obsv: metric %s registered with odd label list %v", name, labels))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obsv: metric %s re-registered as %s, was %s", name, k, f.kind))
	}
	key := labelKey(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]string(nil), labels...), labelStr: key}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
// labels are flattened key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.getSeries(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Histogram returns the histogram for name+labels, creating it on first
// use. Observations are int64; families named *_seconds are assumed to
// observe nanoseconds and are exposed in seconds.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	s := r.getSeries(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = NewHistogram()
	}
	return s.h
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...string) {
	s := r.getSeries(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.cf = fn
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time. Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() int64, labels ...string) {
	s := r.getSeries(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gf = fn
}

// HistogramFunc registers a histogram whose snapshot is produced by fn
// at exposition time — typically a merge of per-task histograms a
// subsystem owns. Re-registering replaces the callback.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot, labels ...string) {
	s := r.getSeries(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.hf = fn
}
