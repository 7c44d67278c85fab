package tencentrec

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestSystemTraceWaterfall drives a sampled action through the full
// pipeline and asserts its trace is a span chain across at least three
// topology stages with monotonic timestamps — the latency waterfall the
// monitor prints.
func TestSystemTraceWaterfall(t *testing.T) {
	sys, err := Open(SystemConfig{
		DataDir:    t.TempDir(),
		Params:     Params{FlushInterval: 20 * time.Millisecond, WindowSessions: -1},
		TraceEvery: 1, // sample everything so the assertion is deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	for u, user := range []string{"u1", "u2", "u3"} {
		ts := t0.Add(time.Duration(u) * time.Minute)
		sys.Publish(RawAction{User: user, Item: "show-a", Action: "play", TS: ts.UnixNano()})
		sys.Publish(RawAction{User: user, Item: "show-b", Action: "play", TS: ts.Add(time.Second).UnixNano()})
	}
	if err := sys.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	traces := sys.Traces()
	if len(traces) == 0 {
		t.Fatal("no traces sampled with TraceEvery=1")
	}
	var best int
	for _, tr := range traces {
		stages := map[string]bool{}
		for _, s := range tr.Spans {
			stages[s.Stage] = true
			if s.Enqueue < tr.Start {
				t.Errorf("trace %d stage %s: enqueue %d before trace start %d", tr.ID, s.Stage, s.Enqueue, tr.Start)
			}
			if s.Start < s.Enqueue || s.End < s.Start {
				t.Errorf("trace %d stage %s: non-monotonic span enq=%d start=%d end=%d",
					tr.ID, s.Stage, s.Enqueue, s.Start, s.End)
			}
		}
		// Spans are exported sorted by execution start.
		for i := 1; i < len(tr.Spans); i++ {
			if tr.Spans[i].Start < tr.Spans[i-1].Start {
				t.Errorf("trace %d spans not ordered by start", tr.ID)
			}
		}
		if len(stages) > best {
			best = len(stages)
		}
	}
	if best < 3 {
		var buf bytes.Buffer
		sys.WriteTraceWaterfall(&buf)
		t.Fatalf("no trace spans >= 3 stages (best %d):\n%s", best, buf.String())
	}

	// The waterfall rendering names the stages the spans crossed.
	var buf bytes.Buffer
	sys.WriteTraceWaterfall(&buf)
	for _, stage := range []string{"pretreatment", "userHistory"} {
		if !strings.Contains(buf.String(), stage) {
			t.Errorf("waterfall missing stage %q:\n%s", stage, buf.String())
		}
	}
}

// TestPrometheusFamilyCoverage asserts the one registry covers every
// instrumented layer: stream engine, TDStore client, TDAccess broker and
// the serving front end.
func TestPrometheusFamilyCoverage(t *testing.T) {
	sys, err := Open(SystemConfig{
		DataDir: t.TempDir(),
		Params:  Params{FlushInterval: 20 * time.Millisecond, WindowSessions: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Handler() // serving instruments register when the front end is built

	sys.Publish(RawAction{User: "u1", Item: "a", Action: "play", TS: t0.UnixNano()})
	sys.Publish(RawAction{User: "u1", Item: "b", Action: "play", TS: t0.Add(time.Second).UnixNano()})
	if err := sys.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := sys.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		// stream engine
		"# TYPE stream_emitted_total counter",
		"# TYPE stream_execute_seconds histogram",
		"# TYPE stream_queue_depth_batches gauge",
		`stream_execute_seconds_count{component="userHistory"}`,
		// TDStore client
		"# TYPE tdstore_op_seconds histogram",
		// TDAccess broker
		"# TYPE tdaccess_published_total counter",
		"# TYPE tdaccess_consume_lag_seconds histogram",
		// serving front end
		"# TYPE http_request_seconds histogram",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("exposition missing %q", family)
		}
	}

	// The spout consumed both actions, and the stream counters saw them.
	if !strings.Contains(out, `stream_emitted_total{component="spout"} 2`) {
		t.Errorf("spout emitted counter not reflected:\n%s", out)
	}
}
