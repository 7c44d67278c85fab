package tdaccess

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func newTestBroker(t *testing.T, opts Options) *Broker {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	b, err := NewBroker(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestProduceConsumeRoundTrip(t *testing.T) {
	b := newTestBroker(t, Options{})
	p := b.NewProducer()
	for i := 0; i < 100; i++ {
		if _, _, err := p.Send("actions", fmt.Sprintf("user-%d", i%10), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c := b.NewConsumer("g1")
	if err := c.Subscribe("actions"); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Poll(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 100 {
		t.Fatalf("polled %d messages, want 100", len(msgs))
	}
	seen := make(map[string]bool)
	for _, m := range msgs {
		seen[string(m.Payload)] = true
	}
	if len(seen) != 100 {
		t.Fatalf("got %d distinct payloads, want 100", len(seen))
	}
}

// TestSeedCommittedOffsetsResumesTail simulates a cold restart: publish,
// consume and commit part of the stream, reopen the broker over the same
// directory (group state gone), seed the committed offsets back, and
// check a fresh consumer sees only the tail.
func TestSeedCommittedOffsetsResumesTail(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBroker(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := b.NewProducer()
	for i := 0; i < 40; i++ {
		if _, _, err := p.Send("actions", fmt.Sprintf("user-%d", i%8), []byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c := b.NewConsumer("g")
	if err := c.Subscribe("actions"); err != nil {
		t.Fatal(err)
	}
	msgs, _ := c.Poll(1000)
	if len(msgs) != 40 {
		t.Fatalf("polled %d, want 40", len(msgs))
	}
	// Commit everything, then record the frontier.
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	frontier := make([]int64, 2)
	for part := 0; part < 2; part++ {
		off, err := b.CommittedOffset("g", "actions", part)
		if err != nil {
			t.Fatal(err)
		}
		frontier[part] = off
	}
	// Tail published after the frontier snapshot.
	for i := 40; i < 50; i++ {
		p.Send("actions", fmt.Sprintf("user-%d", i%8), []byte(fmt.Sprintf("m-%d", i)))
	}
	b.Close()

	// Cold restart: disk retained, group state lost.
	b2, err := NewBroker(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if err := b2.SeedCommittedOffsets("g", "actions", frontier); err != nil {
		t.Fatal(err)
	}
	c2 := b2.NewConsumer("g")
	if err := c2.Subscribe("actions"); err != nil {
		t.Fatal(err)
	}
	tail, _ := c2.Poll(1000)
	if len(tail) != 10 {
		t.Fatalf("replayed %d messages after seeding, want exactly the 10-tail", len(tail))
	}
	for _, m := range tail {
		if string(m.Payload) < "m-40" && len(m.Payload) <= 4 {
			t.Fatalf("pre-frontier message %q replayed", m.Payload)
		}
	}
	// Seeding is monotone: replanting a stale lower frontier must not
	// rewind the group.
	if err := b2.SeedCommittedOffsets("g", "actions", []int64{0, 0}); err != nil {
		t.Fatal(err)
	}
	for part := 0; part < 2; part++ {
		off, _ := b2.CommittedOffset("g", "actions", part)
		if off < frontier[part] {
			t.Fatalf("partition %d rewound to %d (frontier %d)", part, off, frontier[part])
		}
	}
}

func TestKeyedMessagesPreserveOrder(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 8})
	p := b.NewProducer()
	for i := 0; i < 50; i++ {
		if _, _, err := p.Send("t", "same-key", []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c := b.NewConsumer("g")
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 50 {
		t.Fatalf("polled %d, want 50", len(msgs))
	}
	part := msgs[0].Partition
	for i, m := range msgs {
		if m.Partition != part {
			t.Fatalf("key spread across partitions %d and %d", part, m.Partition)
		}
		if string(m.Payload) != fmt.Sprintf("%d", i) {
			t.Fatalf("message %d out of order: %q", i, m.Payload)
		}
	}
}

func TestConsumerGroupSplitsPartitions(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 4})
	p := b.NewProducer()
	for i := 0; i < 400; i++ {
		p.Send("t", fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	c1 := b.NewConsumer("g")
	c2 := b.NewConsumer("g")
	if err := c1.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	m1, err := c1.Poll(1000)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c2.Poll(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(m1)+len(m2) != 400 {
		t.Fatalf("group consumed %d+%d, want 400 total", len(m1), len(m2))
	}
	if len(m1) == 0 || len(m2) == 0 {
		t.Fatalf("lopsided assignment: %d vs %d", len(m1), len(m2))
	}
	// No partition served to both members.
	parts1 := make(map[int]bool)
	for _, m := range m1 {
		parts1[m.Partition] = true
	}
	for _, m := range m2 {
		if parts1[m.Partition] {
			t.Fatalf("partition %d consumed by both members", m.Partition)
		}
	}
}

func TestCommitResumesAcrossConsumers(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 1})
	p := b.NewProducer()
	for i := 0; i < 10; i++ {
		p.Send("t", "", []byte(fmt.Sprintf("%d", i)))
	}
	c1 := b.NewConsumer("g")
	c1.Subscribe("t")
	msgs, _ := c1.Poll(4)
	if len(msgs) != 4 {
		t.Fatalf("polled %d, want 4", len(msgs))
	}
	if err := c1.Commit(); err != nil {
		t.Fatal(err)
	}
	c1.Unsubscribe()

	c2 := b.NewConsumer("g")
	c2.Subscribe("t")
	rest, _ := c2.Poll(100)
	if len(rest) != 6 {
		t.Fatalf("second consumer polled %d, want 6", len(rest))
	}
	if string(rest[0].Payload) != "4" {
		t.Fatalf("resumed at %q, want 4", rest[0].Payload)
	}
}

func TestIndependentGroupsSeeAllData(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 2})
	p := b.NewProducer()
	for i := 0; i < 20; i++ {
		p.Send("t", fmt.Sprintf("k%d", i), nil)
	}
	for _, g := range []string{"realtime", "offline"} {
		c := b.NewConsumer(g)
		c.Subscribe("t")
		msgs, err := c.Poll(100)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 20 {
			t.Fatalf("group %s saw %d messages, want 20", g, len(msgs))
		}
	}
}

func TestRecoveryAcrossBrokerRestart(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewBroker(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := b1.NewProducer()
	for i := 0; i < 30; i++ {
		p.Send("persist", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	b1.Close()

	b2, err := NewBroker(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	c := b2.NewConsumer("g")
	if err := c.Subscribe("persist"); err != nil {
		t.Fatal(err)
	}
	msgs, err := c.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 30 {
		t.Fatalf("recovered %d messages, want 30", len(msgs))
	}
}

func TestSegmentRotation(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 1, SegmentBytes: 256})
	p := b.NewProducer()
	payload := make([]byte, 64)
	for i := 0; i < 50; i++ {
		p.Send("t", "", payload)
	}
	b.mu.Lock()
	segs := b.topics["t"].parts[0].log.SegmentCount()
	b.mu.Unlock()
	if segs < 2 {
		t.Fatalf("SegmentCount = %d, rotation never happened", segs)
	}
	c := b.NewConsumer("g")
	c.Subscribe("t")
	msgs, err := c.Poll(100)
	if err != nil || len(msgs) != 50 {
		t.Fatalf("poll across segments: %d msgs, %v", len(msgs), err)
	}
}

func TestDataServerFailureAndRevival(t *testing.T) {
	b := newTestBroker(t, Options{DataServers: 2, Partitions: 2})
	p := b.NewProducer()
	if _, _, err := p.Send("t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	part := b.topics["t"].partitionFor("k")
	server := b.topics["t"].parts[part].server
	b.mu.Unlock()
	if err := b.KillDataServer(server); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Send("t", "k", []byte("v2")); err == nil {
		t.Fatal("send to dead data server succeeded")
	}
	if err := b.ReviveDataServer(server); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Send("t", "k", []byte("v3")); err != nil {
		t.Fatalf("send after revival: %v", err)
	}
	c := b.NewConsumer("g")
	c.Subscribe("t")
	msgs, err := c.Poll(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("polled %d messages, want 2 (disk cache preserved)", len(msgs))
	}
}

func TestMessageCodecProperty(t *testing.T) {
	l, err := openLog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f := func(key string, payload []byte) bool {
		off, err := appendMessage(l, key, payload)
		if err != nil {
			return false
		}
		body, err := l.Read(off)
		if err != nil {
			return false
		}
		k, p, err := decodeMessage(body)
		if err != nil || k != key || len(p) != len(payload) {
			return false
		}
		for i := range p {
			if p[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMessageRejectsCorrupt(t *testing.T) {
	if _, _, err := decodeMessage([]byte{0xff}); err == nil {
		t.Fatal("decodeMessage accepted a truncated frame")
	}
}

func TestLogOffsetOutOfRange(t *testing.T) {
	l, err := openLog(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Read(0); err != ErrOffsetOutOfRange {
		t.Fatalf("Read(0) on empty log = %v, want ErrOffsetOutOfRange", err)
	}
	l.Append([]byte("x"))
	if _, err := l.Read(1); err != ErrOffsetOutOfRange {
		t.Fatalf("Read(1) = %v, want ErrOffsetOutOfRange", err)
	}
	if _, err := l.Read(-1); err != ErrOffsetOutOfRange {
		t.Fatalf("Read(-1) = %v, want ErrOffsetOutOfRange", err)
	}
}

// pollAll drains the consumer until it returns no more messages.
func pollAll(t *testing.T, c *Consumer) []Message {
	t.Helper()
	var out []Message
	for {
		msgs, err := c.Poll(64)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			return out
		}
		out = append(out, msgs...)
	}
}

func TestUncommittedMessagesRedeliveredToReplacement(t *testing.T) {
	// A consumer that polls but never commits, then leaves the group,
	// must not advance the group's offsets: its replacement re-receives
	// everything. This is the broker-side contract the acked-frontier
	// offset commit in the topology spout relies on.
	b := newTestBroker(t, Options{Partitions: 3})
	p := b.NewProducer()
	for i := 0; i < 30; i++ {
		if _, _, err := p.Send("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c1 := b.NewConsumer("g")
	if err := c1.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	if got := pollAll(t, c1); len(got) != 30 {
		t.Fatalf("c1 polled %d messages, want 30", len(got))
	}
	c1.Unsubscribe() // replaced without committing

	c2 := b.NewConsumer("g")
	if err := c2.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	redelivered := pollAll(t, c2)
	if len(redelivered) != 30 {
		t.Fatalf("replacement re-received %d messages, want all 30", len(redelivered))
	}
}

// BenchmarkProducerSend publishes records of the benchmark's action size
// to one partition: an 8-byte key and a 30-byte payload make a 39-byte
// body, 47 bytes on disk, as in BenchmarkLogResidentIndex.
func BenchmarkProducerSend(b *testing.B) {
	br, err := NewBroker(Options{Dir: b.TempDir(), Partitions: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	p := br.NewProducer()
	payload := bytes.Repeat([]byte("a"), 30)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, err := p.Send("actions", "user-001", payload); err != nil {
			b.Fatal(err)
		}
	}
}
