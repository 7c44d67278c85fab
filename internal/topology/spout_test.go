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
	ids    []interface{}
}

func (c *stubSpoutCollector) Emit(v stream.Values)             { c.values = append(c.values, v) }
func (c *stubSpoutCollector) EmitTo(_ string, v stream.Values) { c.values = append(c.values, v) }
func (c *stubSpoutCollector) EmitAnchored(id interface{}, v stream.Values) {
	c.ids = append(c.ids, id)
	c.values = append(c.values, v)
}
func (c *stubSpoutCollector) EmitAnchoredTo(_ string, id interface{}, v stream.Values) {
	c.EmitAnchored(id, v)
}

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
// read positions already advanced. Without acking nothing re-reads them,
// so a spout that drops them on the error has lost them.
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
	if err := sp.Open(stream.TopologyContext{}, col); err != nil { // acking off
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

func TestSpoutAckedFrontierCommit(t *testing.T) {
	broker := newSpoutBroker(t, 1)
	prod := broker.NewProducer()
	for i := 0; i < 3; i++ {
		if _, _, err := prod.Send("acts", "", []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sp := NewTDAccessSpout(TDAccessSpoutConfig{
		Broker: broker, Topic: "acts", Group: "g", StopWhenDrained: true,
		IdleSleep: 50 * time.Microsecond,
	})().(*TDAccessSpout)
	col := &stubSpoutCollector{}
	if err := sp.Open(stream.TopologyContext{Acking: true}, col); err != nil {
		t.Fatal(err)
	}

	sp.NextTuple()
	if len(col.ids) != 3 || sp.inflight != 3 {
		t.Fatalf("anchored %d msgs, inflight %d; want 3, 3", len(col.ids), sp.inflight)
	}

	committed := func() int64 {
		off, err := broker.CommittedOffset("g", "acts", 0)
		if err != nil {
			t.Fatal(err)
		}
		return off
	}
	// Committed offsets advance only with the contiguous acked frontier:
	// acking offset 1 alone commits nothing, acking 0 commits through 2.
	sp.Ack(spoutMsgID{Partition: 0, Offset: 1})
	if off := committed(); off != 0 {
		t.Fatalf("out-of-order ack committed offset %d, want 0", off)
	}
	sp.Ack(spoutMsgID{Partition: 0, Offset: 0})
	if off := committed(); off != 2 {
		t.Fatalf("frontier commit reached %d, want 2", off)
	}

	// A failed lineage replays from the retained payload under its id.
	sp.Fail(spoutMsgID{Partition: 0, Offset: 2})
	if len(col.values) != 4 || string(col.values[3][0].([]byte)) != "m2" {
		t.Fatalf("replay emissions = %d (%v), want m2 re-emitted", len(col.values), col.values)
	}
	sp.Ack(spoutMsgID{Partition: 0, Offset: 2})
	if sp.inflight != 0 {
		t.Fatalf("inflight = %d after all acks, want 0", sp.inflight)
	}
	if off := committed(); off != 3 {
		t.Fatalf("committed offset %d after full ack, want 3", off)
	}
	// Duplicate results (a restarted task replaying an already-acked
	// lineage) are tolerated.
	sp.Ack(spoutMsgID{Partition: 0, Offset: 2})
	sp.Fail(spoutMsgID{Partition: 0, Offset: 0})
	if sp.inflight != 0 || len(col.values) != 4 {
		t.Fatalf("duplicate results disturbed the window: inflight %d, emissions %d", sp.inflight, len(col.values))
	}

	// Drained and fully acked: the finite-run spout exhausts.
	if sp.NextTuple() {
		t.Fatal("NextTuple still true after drain + full ack")
	}
	sp.Close()
}

// TestPoisonRecordIsDroppedNotReplayed: a payload that is not an action
// frame must cost one execution and one count. While Pretreatment
// returned the decode error, an acked topology failed the lineage, the
// spout replayed the same bytes, and the partition's commit frontier
// never passed the record.
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
		WithAcking(0).
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
		t.Fatal("topology did not drain: the poison record is being replayed")
	}
	if off, err := broker.CommittedOffset("g", "acts", 0); err != nil || off != 3 {
		t.Fatalf("committed offset = %d, %v; want 3", off, err)
	}
	if got := snap.Components[UnitPretreatment].Executed; got != 3 {
		t.Fatalf("pretreatment executed %d tuples, want 3 (each record once)", got)
	}
	if got := snap.Components[UnitSpout].Failed; got != 0 {
		t.Fatalf("%d lineages failed back to the spout, want 0", got)
	}
	if got := reg.Counter("pretreatment_malformed_total", "").Value(); got != 1 {
		t.Fatalf("pretreatment_malformed_total = %d, want 1", got)
	}
	if got := snap.Components[UnitUserHistory].Executed; got != 2 {
		t.Fatalf("userHistory executed %d tuples, want the 2 valid actions", got)
	}
}

func TestPretreatmentDedupDropsReplays(t *testing.T) {
	factory := newPretreatmentBolt(Params{DedupWindow: 8}, new(obsv.Counter))
	var got []stream.Values
	b1 := factory()
	b2 := factory() // sibling task: the window is shared via the factory
	sink := &stubCollector{out: &got}
	if err := b1.Prepare(stream.TopologyContext{}, sink); err != nil {
		t.Fatal(err)
	}
	if err := b2.Prepare(stream.TopologyContext{}, sink); err != nil {
		t.Fatal(err)
	}
	a := RawAction{User: "u", Item: "i", Action: "click", TS: 1}
	tu := func(msgid string) *stream.Tuple {
		return stream.NewTuple("spout", stream.DefaultStream, rawFields,
			stream.Values{EncodeAction(a), msgid})
	}
	if err := b1.Execute(tu("0/7")); err != nil {
		t.Fatal(err)
	}
	if err := b2.Execute(tu("0/7")); err != nil { // replay on a sibling task
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("duplicate msgid passed dedup: %d emissions, want 1", len(got))
	}
	// Distinct ids pass, and spouts without ids are never deduped.
	if err := b1.Execute(tu("0/8")); err != nil {
		t.Fatal(err)
	}
	if err := b1.Execute(tu("")); err != nil {
		t.Fatal(err)
	}
	if err := b2.Execute(tu("")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d emissions, want 4", len(got))
	}
}

// stubCollector is a plain bolt collector capturing emissions.
type stubCollector struct{ out *[]stream.Values }

func (c *stubCollector) Emit(v stream.Values)             { *c.out = append(*c.out, v) }
func (c *stubCollector) EmitTo(_ string, v stream.Values) { *c.out = append(*c.out, v) }

// TestSliceSpoutReplaysFailedAction: with acking on, every emission is
// anchored to its slice index, a failed one is re-emitted with the same
// payload, and the spout exhausts only once every index is acked; with
// acking off each action goes out once, unanchored.
func TestSliceSpoutReplaysFailedAction(t *testing.T) {
	actions := genActions(7, 3, 4, 8)
	open := func(acking bool) (stream.AckingSpout, *stubSpoutCollector) {
		sp, ok := NewSliceSpout(actions)().(stream.AckingSpout)
		if !ok {
			t.Fatal("SliceSpout does not take acks")
		}
		col := &stubSpoutCollector{}
		if err := sp.Open(stream.TopologyContext{NumTasks: 1, Acking: acking}, col); err != nil {
			t.Fatal(err)
		}
		return sp, col
	}

	sp, col := open(true)
	for i := range actions {
		if !sp.NextTuple() {
			t.Fatalf("exhausted after %d of %d actions", i, len(actions))
		}
	}
	if len(col.ids) != len(actions) {
		t.Fatalf("anchored %d of %d emissions", len(col.ids), len(actions))
	}
	sp.Fail(col.ids[1])
	if !sp.NextTuple() || len(col.ids) != len(actions)+1 {
		t.Fatalf("a failed action was not re-emitted: %d anchored emissions", len(col.ids))
	}
	if col.ids[len(actions)] != col.ids[1] || string(col.values[len(actions)][0].([]byte)) != string(col.values[1][0].([]byte)) {
		t.Fatalf("replay emitted id %v, want the failed %v with its payload", col.ids[len(actions)], col.ids[1])
	}
	sp.Ack(col.ids[0])
	sp.Ack(col.ids[1])
	if !sp.NextTuple() {
		t.Fatal("exhausted with an action still unacked")
	}
	sp.Ack(col.ids[2])
	if sp.NextTuple() {
		t.Fatal("did not exhaust once every action was acked")
	}

	sp, col = open(false)
	for sp.NextTuple() {
	}
	if len(col.values) != len(actions) || len(col.ids) != 0 {
		t.Fatalf("acking off: %d emissions, %d anchored; want %d, 0", len(col.values), len(col.ids), len(actions))
	}
}
