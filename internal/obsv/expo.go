package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type of WritePrometheus output
// (Prometheus text exposition format 0.0.4).
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// secondsScale converts nanosecond observations of a *_seconds family
// into the base unit Prometheus expects.
const secondsScale = 1e-9

// familyScale returns the multiplier applied to a histogram family's
// observed values at exposition: families named *_seconds observe
// nanoseconds by repo convention and are exposed in seconds.
func familyScale(name string) float64 {
	if strings.HasSuffix(name, "_seconds") {
		return secondsScale
	}
	return 1
}

// seriesValue reads the current value of a counter or gauge series.
func (s *series) value() int64 {
	switch {
	case s.c != nil:
		return s.c.Value()
	case s.cf != nil:
		return s.cf()
	case s.gf != nil:
		return s.gf()
	}
	return 0
}

// histSnapshot reads the current snapshot of a histogram series.
func (s *series) histSnapshot() HistogramSnapshot {
	switch {
	case s.h != nil:
		return s.h.Snapshot()
	case s.hf != nil:
		return s.hf()
	}
	return HistogramSnapshot{}
}

// snapshotFamilies copies the family/series structure under the lock so
// exposition can read instrument values without holding it (“Func“
// callbacks may take subsystem locks of their own).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		cp := &family{name: f.name, help: f.help, kind: f.kind}
		cp.series = append(cp.series, f.series...)
		out = append(out, cp)
	}
	return out
}

// WritePrometheus renders every registered family in the Prometheus text
// exposition format 0.0.4: HELP/TYPE headers, then one line per series
// (counters and gauges) or the cumulative bucket/sum/count triplet
// (histograms).
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if f.kind == kindHistogram {
				if err := writePromHistogram(w, f.name, s); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labelStr, s.value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// promLabels renders a series' labels with one extra pair appended —
// the `le` of a histogram bucket line.
func promLabels(s *series, extraKey, extraVal string) string {
	var b strings.Builder
	b.WriteByte('{')
	inner := strings.TrimSuffix(strings.TrimPrefix(s.labelStr, "{"), "}")
	if inner != "" {
		b.WriteString(inner)
		b.WriteByte(',')
	}
	b.WriteString(extraKey)
	b.WriteString(`="`)
	b.WriteString(extraVal)
	b.WriteString(`"}`)
	return b.String()
}

// writePromHistogram renders one histogram series as cumulative
// `_bucket{le=...}` lines plus `_sum` and `_count`. Only buckets up to
// the highest populated one are listed — power-of-two boundaries up to
// 2^64 would otherwise emit 65 lines per empty series.
func writePromHistogram(w io.Writer, name string, s *series) error {
	snap := s.histSnapshot()
	scale := familyScale(name)
	top := 0
	for i, n := range snap.Buckets {
		if n > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += snap.Buckets[i]
		_, hi := bucketBounds(i)
		le := strconv.FormatFloat(float64(hi)*scale, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s, "le", "+Inf"), snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, s.labelStr, float64(snap.Sum)*scale); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.labelStr, snap.Count)
	return err
}

// jsonSeries is the /debug/vars-style JSON rendering of one series.
type jsonSeries struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *int64            `json:"value,omitempty"`
	Hist   *jsonHistogram    `json:"histogram,omitempty"`
}

// jsonHistogram summarizes a histogram for the JSON dump; quantiles are
// reported in the family's exposition unit.
type jsonHistogram struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// WriteJSON renders every registered family as a JSON object keyed by
// family name — the `GET /debug/vars` style dump. Counters and gauges
// report their value; histograms report count/sum/mean/p50/p90/p99/max
// in the family's exposition unit (seconds for *_seconds families).
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string][]jsonSeries)
	for _, f := range r.snapshotFamilies() {
		scale := familyScale(f.name)
		rows := make([]jsonSeries, 0, len(f.series))
		for _, s := range f.series {
			row := jsonSeries{}
			if len(s.labels) > 0 {
				row.Labels = make(map[string]string, len(s.labels)/2)
				for i := 0; i+1 < len(s.labels); i += 2 {
					row.Labels[s.labels[i]] = s.labels[i+1]
				}
			}
			if f.kind == kindHistogram {
				snap := s.histSnapshot()
				row.Hist = &jsonHistogram{
					Count: snap.Count,
					Sum:   float64(snap.Sum) * scale,
					Mean:  float64(snap.Mean()) * scale,
					P50:   float64(snap.Quantile(0.50)) * scale,
					P90:   float64(snap.Quantile(0.90)) * scale,
					P99:   float64(snap.Quantile(0.99)) * scale,
					Max:   float64(snap.Max) * scale,
				}
			} else {
				v := s.value()
				row.Value = &v
			}
			rows = append(rows, row)
		}
		out[f.name] = rows
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ServePrometheus is WritePrometheus as an HTTP handler, the GET /metrics
// of every process that owns a registry.
func (r *Registry) ServePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PrometheusContentType)
	_ = r.WritePrometheus(w) // the client hung up
}

// ServeJSON is WriteJSON as an HTTP handler, the GET /debug/vars of every
// process that owns a registry.
func (r *Registry) ServeJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = r.WriteJSON(w) // the client hung up
}
