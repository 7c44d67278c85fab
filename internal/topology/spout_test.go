package topology

import (
	"context"
	"fmt"
	"testing"
	"time"

	"tencentrec/internal/obsv"
	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
)

// stubSpoutCollector records emissions for direct spout-level tests.
type stubSpoutCollector struct {
	values []stream.Values
}

func (c *stubSpoutCollector) Emit(v stream.Values)             { c.values = append(c.values, v) }
func (c *stubSpoutCollector) EmitTo(_ string, v stream.Values) { c.values = append(c.values, v) }

const spoutTestServers = 2

func newSpoutBroker(t *testing.T, partitions int) *tdaccess.Broker {
	t.Helper()
	b, err := tdaccess.NewBroker(tdaccess.Options{
		Dir: t.TempDir(), Partitions: partitions, DataServers: spoutTestServers,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestSpoutPollErrorBackoffRecovers(t *testing.T) {
	broker := newSpoutBroker(t, 2)
	prod := broker.NewProducer()
	for i := 0; i < 5; i++ {
		if _, _, err := prod.Send("acts", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	idle := 200 * time.Microsecond
	sp := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker: broker, Topic: "acts", Group: "g", IdleSleep: idle,
	})().(*TDAccessSpout)
	col := &stubSpoutCollector{}
	if err := sp.Open(stream.TopologyContext{}, col); err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	// Take the whole broker down: every poll errors, and the sleep
	// grows exponentially from idleSleep/4 up to the 16x cap.
	for i := 0; i < spoutTestServers; i++ {
		if err := broker.KillDataServer(i); err != nil {
			t.Fatal(err)
		}
	}
	if !sp.NextTuple() {
		t.Fatal("NextTuple returned false on a poll error")
	}
	if sp.errBackoff != idle/4 {
		t.Fatalf("first error backoff = %v, want %v", sp.errBackoff, idle/4)
	}
	last := sp.errBackoff
	for i := 0; i < 10; i++ {
		sp.NextTuple()
		if sp.errBackoff < last {
			t.Fatalf("backoff shrank mid-outage: %v -> %v", last, sp.errBackoff)
		}
		last = sp.errBackoff
	}
	if sp.errBackoff != 16*idle {
		t.Fatalf("capped backoff = %v, want %v", sp.errBackoff, 16*idle)
	}

	// The hiccup heals: the very next poll succeeds, delivers the
	// backlog, and resets the backoff for the next incident.
	for i := 0; i < spoutTestServers; i++ {
		if err := broker.ReviveDataServer(i); err != nil {
			t.Fatal(err)
		}
	}
	sp.NextTuple()
	if sp.errBackoff != 0 {
		t.Fatalf("backoff not reset after recovery: %v", sp.errBackoff)
	}
	if len(col.values) != 5 {
		t.Fatalf("delivered %d messages after recovery, want 5", len(col.values))
	}
}

// TestSpoutEmitsWhatAFailingPollReturned: Poll returns the messages of
// the partitions before a failing one together with the error, their
// read positions already advanced. Nothing re-reads them, so a spout that
// drops them on the error has lost them.
func TestSpoutEmitsWhatAFailingPollReturned(t *testing.T) {
	broker := newSpoutBroker(t, 2) // partition p is served by data server p
	prod := broker.NewProducer()
	perPartition := map[int][]string{}
	for i := 0; i < 40; i++ {
		payload := fmt.Sprintf("m%d", i)
		part, _, err := prod.Send("acts", fmt.Sprintf("k%d", i), []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		perPartition[part] = append(perPartition[part], payload)
	}
	if len(perPartition[0]) == 0 || len(perPartition[1]) == 0 {
		t.Fatalf("keys did not spread over both partitions: %v", perPartition)
	}
	sp := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker: broker, Topic: "acts", Group: "g", IdleSleep: 50 * time.Microsecond,
	})().(*TDAccessSpout)
	col := &stubSpoutCollector{}
	if err := sp.Open(stream.TopologyContext{}, col); err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	emitted := func() map[string]int {
		seen := map[string]int{}
		for _, v := range col.values {
			seen[string(v[0].([]byte))]++
		}
		return seen
	}

	if err := broker.KillDataServer(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sp.NextTuple()
	}
	if sp.errBackoff == 0 {
		t.Fatal("the poll of the dead partition did not take the backoff branch")
	}
	seen := emitted()
	for _, m := range perPartition[0] {
		if seen[m] != 1 {
			t.Fatalf("healthy partition's %s emitted %d times during the outage, want 1", m, seen[m])
		}
	}
	if len(col.values) != len(perPartition[0]) {
		t.Fatalf("%d emissions during the outage, want the healthy partition's %d", len(col.values), len(perPartition[0]))
	}

	if err := broker.ReviveDataServer(1); err != nil {
		t.Fatal(err)
	}
	sp.NextTuple()
	seen = emitted()
	for part, msgs := range perPartition {
		for _, m := range msgs {
			if seen[m] != 1 {
				t.Fatalf("partition %d's %s emitted %d times in all, want 1", part, m, seen[m])
			}
		}
	}
	if len(col.values) != 40 {
		t.Fatalf("%d emissions in all, want 40", len(col.values))
	}
}

// TestPoisonRecordIsDroppedNotReplayed: a payload that is not an action
// frame must cost one execution and one count, not a component error, and
// the partition's commit frontier must pass the record.
func TestPoisonRecordIsDroppedNotReplayed(t *testing.T) {
	broker := newSpoutBroker(t, 1)
	prod := broker.NewProducer()
	valid := func(i int) []byte {
		return EncodeAction(RawAction{User: "u", Item: fmt.Sprintf("i%d", i), Action: "click", TS: int64(i + 1)})
	}
	for _, payload := range [][]byte{valid(0), []byte(`{"user":"u","item":"i","action":"click"}`), valid(1)} {
		if _, _, err := prod.Send("acts", "u", payload); err != nil {
			t.Fatal(err)
		}
	}
	reg := obsv.NewRegistry()
	spout := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker: broker, Topic: "acts", Group: "g", StopWhenDrained: true, IdleSleep: 100 * time.Microsecond,
	})
	topo, err := NewBuilder("poison", spout, NewMemState(), Params{FlushInterval: time.Hour}).
		WithObservability(reg, nil).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	snap, err := topo.RunWithErrorHandler(ctx, func(c string, err error) {
		t.Errorf("component %s: %v", c, err)
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Err() != nil {
		t.Fatal("topology did not drain past the poison record")
	}
	if off, err := broker.CommittedOffset("g", "acts", 0); err != nil || off != 3 {
		t.Fatalf("committed offset = %d, %v; want 3", off, err)
	}
	if got := snap.Components[UnitPretreatment].Executed; got != 3 {
		t.Fatalf("pretreatment executed %d tuples, want 3 (each record once)", got)
	}
	if got := reg.Counter("pretreatment_malformed_total", "").Value(); got != 1 {
		t.Fatalf("pretreatment_malformed_total = %d, want 1", got)
	}
	if got := snap.Components[UnitUserHistory].Executed; got != 2 {
		t.Fatalf("userHistory executed %d tuples, want the 2 valid actions", got)
	}
}

// stubCollector is a plain bolt collector capturing emissions.
type stubCollector struct{ out *[]stream.Values }

func (c *stubCollector) Emit(v stream.Values)             { *c.out = append(*c.out, v) }
func (c *stubCollector) EmitTo(_ string, v stream.Values) { *c.out = append(*c.out, v) }
