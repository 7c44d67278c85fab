package obsv

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "hits")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("hits_total", "hits"); again != c {
		t.Fatal("re-registering the same counter returned a new instrument")
	}
	// Re-registering a callback gauge replaces its callback.
	r.GaugeFunc("depth", "queue depth", func() int64 { return 7 }, "q", "a")
	r.GaugeFunc("depth", "queue depth", func() int64 { return 5 }, "q", "a")
	if s := r.families["depth"].series; len(s) != 1 || s[0].value() != 5 {
		t.Fatalf("gauge series = %d, want one reading 5", len(s))
	}
	// Label order must not split series.
	h1 := r.Histogram("lat_seconds", "", "a", "1", "b", "2")
	h2 := r.Histogram("lat_seconds", "", "b", "2", "a", "1")
	if h1 != h2 {
		t.Fatal("label registration order split the series")
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.GaugeFunc("x_total", "", func() int64 { return 0 })
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1023, 1024, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
	// -5 counts as zero, so bucket 0 holds two observations.
	if s.Buckets[0] != 2 {
		t.Fatalf("bucket[0] = %d, want 2 (0 and clamped -5)", s.Buckets[0])
	}
	if s.Buckets[bits.Len64(1024)] != 1 {
		t.Fatalf("1024 not in bucket %d", bits.Len64(1024))
	}
	if s.Max != 1024 {
		t.Fatalf("max = %d, want 1024", s.Max)
	}
	if s.Sum != 0+1+2+3+4+7+8+1023+1024 {
		t.Fatalf("sum = %d", s.Sum)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1000 observations uniform in [0, 1000): quantiles should land in
	// the right power-of-two neighbourhood (the estimator interpolates
	// within buckets, so tolerances are bucket-scale).
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 256 || p50 > 1024 {
		t.Fatalf("p50 = %d, want within [256, 1024]", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512 || p99 > 999 {
		t.Fatalf("p99 = %d, want within [512, 999]", p99)
	}
	if p100 := s.Quantile(1); p100 != 999 {
		t.Fatalf("p100 = %d, want exactly max (999)", p100)
	}
	if q := s.Quantile(0); q < 0 || q > 1 {
		t.Fatalf("p0 = %d, want first bucket", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile != 0")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 200 {
		t.Fatalf("merged count = %d", s.Count)
	}
	if s.Max != 1000 {
		t.Fatalf("merged max = %d", s.Max)
	}
	if s.Sum != 100*10+100*1000 {
		t.Fatalf("merged sum = %d", s.Sum)
	}
	if p50 := s.Quantile(0.5); p50 > 16 {
		t.Fatalf("merged p50 = %d, want in the low cluster", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 512 {
		t.Fatalf("merged p99 = %d, want in the high cluster", p99)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 10000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 80000 {
		t.Fatalf("concurrent count = %d, want 80000", s.Count)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "events seen", "kind", "click").Add(3)
	r.GaugeFunc("app_depth", "queue depth", func() int64 { return 9 })
	h := r.Histogram("app_latency_seconds", "request latency", "path", "/x")
	h.Observe(1500)    // 1.5µs
	h.Observe(3 * 1e9) // 3s
	r.GaugeFunc("app_backlog", "callback gauge", func() int64 { return 42 })
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE app_events_total counter",
		`app_events_total{kind="click"} 3`,
		"# TYPE app_depth gauge",
		"app_depth 9",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{path="/x",le="+Inf"} 2`,
		`app_latency_seconds_count{path="/x"} 2`,
		"app_backlog 42",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The 3s observation must appear in a bucket whose le exceeds 3
	// seconds (scaled from nanoseconds), and cumulative counts must be
	// non-decreasing.
	if !strings.Contains(out, `app_latency_seconds_sum{path="/x"} 3.0000015`) {
		t.Fatalf("scaled sum missing:\n%s", out)
	}
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "app_latency_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmtSscanLast(line, &n); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("cumulative bucket counts decreased: %q after %d", line, prev)
		}
		prev = n
	}
}

// fmtSscanLast parses the trailing integer of an exposition line.
func fmtSscanLast(line string, n *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	v, err := parseInt(line[i+1:])
	*n = v
	return 1, err
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, &parseErr{s}
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

type parseErr struct{ s string }

func (e *parseErr) Error() string { return "not an int: " + e.s }

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "", "k", "v").Add(2)
	r.Histogram("h_seconds", "").Observe(2e9)
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string][]map[string]interface{}
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(out["c_total"]) != 1 {
		t.Fatalf("c_total rows = %v", out["c_total"])
	}
	hist, ok := out["h_seconds"][0]["histogram"].(map[string]interface{})
	if !ok {
		t.Fatalf("h_seconds has no histogram summary: %v", out["h_seconds"])
	}
	if max := hist["max"].(float64); max < 1.9 || max > 2.1 {
		t.Fatalf("scaled max = %v, want ~2s", max)
	}
}

func TestTracerSamplingRate(t *testing.T) {
	tr := NewTracer(4, 1000)
	sampled := 0
	for i := 0; i < 100; i++ {
		if tr.Sample() != nil {
			sampled++
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at 1/4", sampled)
	}
	every1 := NewTracer(1, 10)
	for i := 0; i < 5; i++ {
		if every1.Sample() == nil {
			t.Fatal("every=1 must sample every call")
		}
	}
}

func TestTracerRingAndSpans(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 6; i++ {
		tc := tr.Sample()
		tc.AddSpan("stage", tc.Start, tc.Start+1, tc.Start+2)
	}
	traces := tr.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(traces))
	}
	// Oldest first: ids 3,4,5,6 survive the 6-sample run.
	if traces[0].ID != 3 || traces[3].ID != 6 {
		t.Fatalf("ring order = %d..%d, want 3..6", traces[0].ID, traces[3].ID)
	}
	// Span bound holds.
	tc := tr.Sample()
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tc.AddSpan("s", 0, 1, 2)
	}
	s := tc.snapshot()
	if len(s.Spans) != maxSpansPerTrace || s.Dropped != 10 {
		t.Fatalf("span bound: kept %d dropped %d", len(s.Spans), s.Dropped)
	}
}

func TestWriteWaterfall(t *testing.T) {
	tr := NewTracer(1, 4)
	tc := tr.Sample()
	base := tc.Start
	tc.AddSpan("pretreatment", base, base+int64(10*time.Microsecond), base+int64(20*time.Microsecond))
	tc.AddSpan("spout", base, base, base)
	var b bytes.Buffer
	WriteWaterfall(&b, tr.Traces())
	out := b.String()
	if !strings.Contains(out, "pretreatment") || !strings.Contains(out, "spout") {
		t.Fatalf("waterfall missing stages:\n%s", out)
	}
	// Spans render sorted by start: spout (t=0) before pretreatment.
	if strings.Index(out, "spout") > strings.Index(out, "pretreatment") {
		t.Fatalf("waterfall not sorted by span start:\n%s", out)
	}
}

func TestNowMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("Now went backwards: %d then %d", a, b)
	}
}

// TestObserveAllocs pins the zero-allocation guarantee the hot paths
// rely on; the same property is smoke-checked by scripts/check.sh via
// the benchmarks.
func TestObserveAllocs(t *testing.T) {
	h := NewHistogram()
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v per op", n)
	}
}
