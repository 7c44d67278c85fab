package tdaccess

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tencentrec/internal/obsv"
)

func TestBrokerInstrument(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 2})
	r := obsv.NewRegistry()
	b.Instrument(r)

	p := b.NewProducer()
	for i := 0; i < 20; i++ {
		if _, _, err := p.Send("actions", fmt.Sprintf("k-%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	c := b.NewConsumer("g")
	if err := c.Subscribe("actions"); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 20 {
		t.Fatalf("polled %d, want 20", len(msgs))
	}

	if got := b.ins.Load().published.Value(); got != 20 {
		t.Errorf("published = %d, want 20", got)
	}
	if got := b.ins.Load().consumed.Value(); got != 20 {
		t.Errorf("consumed = %d, want 20", got)
	}
	if lag := b.ins.Load().lag.Snapshot(); lag.Count != 20 {
		t.Errorf("lag samples = %d, want 20 (every polled message was stamped)", lag.Count)
	}

	// Before commit the group has consumed nothing as far as the broker
	// knows: backlog across the topic's partitions equals the log depth.
	var backlog int64
	for part := 0; part < 2; part++ {
		backlog += b.partitionBacklog("actions", part)
	}
	if backlog != 20 {
		t.Errorf("pre-commit backlog = %d, want 20", backlog)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	backlog = b.partitionBacklog("actions", 0) + b.partitionBacklog("actions", 1)
	if backlog != 0 {
		t.Errorf("post-commit backlog = %d, want 0", backlog)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"tdaccess_published_total 20",
		"tdaccess_consumed_total 20",
		`tdaccess_backlog_messages{partition="0",topic="actions"}`,
		"tdaccess_consume_lag_seconds_count 20",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPubStampRingEviction(t *testing.T) {
	s := &pubStamps{}
	for off := int64(0); off < pubStampRing+10; off++ {
		s.record(off, off*100)
	}
	if _, ok := s.lookup(3); ok {
		t.Error("evicted offset still resolves")
	}
	at, ok := s.lookup(pubStampRing + 5)
	if !ok || at != (pubStampRing+5)*100 {
		t.Errorf("recent offset lookup = %d %v", at, ok)
	}
}
