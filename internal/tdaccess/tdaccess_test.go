package tdaccess

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// TestConsumerGroupSplitsPartitions: two consumers of one group, with
// shares 0 and 1 of 2, read the whole topic between them and no partition
// is read by both.
func TestConsumerGroupSplitsPartitions(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 4})
	p := b.NewProducer()
	for i := 0; i < 400; i++ {
		p.Send("t", fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	c1 := b.NewConsumer("g")
	c2 := b.NewConsumer("g")
	if err := c1.SubscribeShare("t", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := c2.SubscribeShare("t", 1, 2); err != nil {
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
	segs := (*b.topics.Load())["t"].parts[0].log.SegmentCount()
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

var errPartitionDown = errors.New("partition down")

// TestFailedAppendChangesNothing: an append to a failed partition returns
// the armed error and leaves the log as it was; once cleared, the next
// append takes the offset the failed one would have had, and the records
// on both sides of the fault are read back.
func TestFailedAppendChangesNothing(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 2})
	p := b.NewProducer()
	part, _, err := p.Send("t", "k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FailPartition("t", part, errPartitionDown); err != nil {
		t.Fatal(err)
	}
	l := (*b.topics.Load())["t"].parts[part].log
	seg := l.segments[len(l.segments)-1]
	next, size, bytesBefore := l.NextOffset(), seg.size, bytes.Clone(seg.m)
	if _, _, err := p.Send("t", "k", []byte("v2")); !errors.Is(err, errPartitionDown) {
		t.Fatalf("send to a failed partition: %v, want %v", err, errPartitionDown)
	}
	if l.NextOffset() != next || seg.size != size || !bytes.Equal(seg.m, bytesBefore) {
		t.Fatalf("failed append moved the log: next %d -> %d, size %d -> %d", next, l.NextOffset(), size, seg.size)
	}
	if err := b.FailPartition("t", part, nil); err != nil {
		t.Fatal(err)
	}
	if _, off, err := p.Send("t", "k", []byte("v3")); err != nil || off != next {
		t.Fatalf("send after clearing: offset %d, %v; want %d", off, err, next)
	}
	c := b.NewConsumer("g")
	c.Subscribe("t")
	msgs := pollAll(t, c)
	if len(msgs) != 2 || string(msgs[0].Payload) != "v1" || string(msgs[1].Payload) != "v3" {
		t.Fatalf("polled %v, want v1 and v3", msgs)
	}
	if err := b.FailPartition("t", 2, errPartitionDown); err == nil {
		t.Fatal("FailPartition of a partition the topic lacks succeeded")
	}
}

// TestFailedReadKeepsPosition: a poll that meets a failed partition
// returns what the partitions before it gave, with the error, and does
// not move the failed partition's position; once cleared, the next poll
// returns its records, and no record comes back twice.
func TestFailedReadKeepsPosition(t *testing.T) {
	b := newTestBroker(t, Options{Partitions: 2})
	p := b.NewProducer()
	perPartition := make([]int, 2)
	for i := 0; i < 40; i++ {
		part, _, err := p.Send("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("m%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		perPartition[part]++
	}
	if perPartition[0] == 0 || perPartition[1] == 0 {
		t.Fatalf("keys did not spread over both partitions: %v", perPartition)
	}
	c := b.NewConsumer("g")
	if err := c.Subscribe("t"); err != nil {
		t.Fatal(err)
	}
	if err := b.FailPartition("t", 1, errPartitionDown); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for range 2 {
		msgs, err := c.Poll(100)
		if !errors.Is(err, errPartitionDown) {
			t.Fatalf("poll across a failed partition: %v, want %v", err, errPartitionDown)
		}
		for _, m := range msgs {
			if m.Partition != 0 {
				t.Fatalf("failed partition %d returned offset %d", m.Partition, m.Offset)
			}
			seen[string(m.Payload)]++
		}
		if c.positions[1] != 0 {
			t.Fatalf("failed partition's position moved to %d", c.positions[1])
		}
	}
	if len(seen) != perPartition[0] {
		t.Fatalf("%d records during the fault, want partition 0's %d", len(seen), perPartition[0])
	}
	if err := b.FailPartition("t", 1, nil); err != nil {
		t.Fatal(err)
	}
	for _, m := range pollAll(t, c) {
		seen[string(m.Payload)]++
	}
	for i := 0; i < 40; i++ {
		if m := fmt.Sprintf("m%d", i); seen[m] != 1 {
			t.Fatalf("%s polled %d times, want 1", m, seen[m])
		}
	}
}

// TestClosedBrokerRefusesUse: after Close, a Send to a topic it had open
// or to a new one, a Poll and a Subscribe each return ErrClosed, and none
// of them creates a directory.
func TestClosedBrokerRefusesUse(t *testing.T) {
	dir := t.TempDir()
	b := newTestBroker(t, Options{Dir: dir})
	p := b.NewProducer()
	if _, _, err := p.Send("actions", "u1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c := b.NewConsumer("g")
	if err := c.Subscribe("actions"); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Send("actions", "u1", []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to an open topic after Close = %v, want ErrClosed", err)
	}
	if _, _, err := p.Send("fresh", "u1", []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to a new topic after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Poll(10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Poll after Close = %v, want ErrClosed", err)
	}
	if err := b.NewConsumer("g2").Subscribe("actions"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
	if err := b.NewConsumer("g3").Subscribe("other"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe to a new topic after Close = %v, want ErrClosed", err)
	}
	for _, name := range []string{"fresh", "other"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("a use of topic %s after Close made its directory (stat: %v)", name, err)
		}
	}
}

// TestFirstUsersOpenATopicOnce: producers and consumers that reach a new
// topic at the same time share one topic, so each partition directory is
// opened by one log, and every record is read back once, live and from
// the files after a reopen.
func TestFirstUsersOpenATopicOnce(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBroker(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	const users, perUser = 8, 50
	consumers := make([]*Consumer, users)
	var wg sync.WaitGroup
	for u := range users {
		consumers[u] = b.NewConsumer(fmt.Sprintf("g%d", u))
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := consumers[u].Subscribe("t"); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			p := b.NewProducer()
			for i := range perUser {
				if _, _, err := p.Send("t", "", []byte(fmt.Sprintf("u%d-%d", u, i))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	tp := (*b.topics.Load())["t"]
	countOnce := func(msgs []Message) {
		t.Helper()
		seen := map[string]int{}
		for _, m := range msgs {
			seen[string(m.Payload)]++
		}
		for u := range users {
			for i := range perUser {
				if m := fmt.Sprintf("u%d-%d", u, i); seen[m] != 1 {
					t.Fatalf("%s polled %d times, want 1", m, seen[m])
				}
			}
		}
	}
	for _, c := range consumers {
		if c.t != tp {
			t.Fatal("two first users opened the topic twice")
		}
		countOnce(pollAll(t, c))
	}
	b.Close()
	b2 := newTestBroker(t, Options{Dir: dir})
	c := b2.NewConsumer("g")
	c.Subscribe("t")
	countOnce(pollAll(t, c))
}

// TestReopenedTopicKeepsItsPartitions: a topic found on disk opens every
// partition it has there, whatever Options.Partitions says, so its keys
// stay where they were; a gap among its partitions is an error.
func TestReopenedTopicKeepsItsPartitions(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewBroker(Options{Dir: dir, Partitions: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := b1.NewProducer()
	for i := 0; i < 80; i++ {
		if _, _, err := p.Send("t", fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	before, _, err := p.Send("t", "late", []byte("v80"))
	if err != nil {
		t.Fatal(err)
	}
	b1.Close()

	b2, err := NewBroker(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := b2.TopicPartitions("t"); n != 8 {
		t.Fatalf("reopened topic has %d partitions, want the 8 on disk", n)
	}
	if after, _, err := b2.NewProducer().Send("t", "late", []byte("v81")); err != nil || after != before {
		t.Fatalf("key sent after the reopen went to partition %d (%v), want %d", after, err, before)
	}
	c := b2.NewConsumer("g")
	c.Subscribe("t")
	seen := map[string]int{}
	for _, m := range pollAll(t, c) {
		seen[string(m.Payload)]++
	}
	for i := 0; i < 82; i++ {
		if m := fmt.Sprintf("v%d", i); seen[m] != 1 {
			t.Fatalf("%s polled %d times, want 1", m, seen[m])
		}
	}
	b2.Close()

	if err := os.RemoveAll(filepath.Join(dir, "t", "p-5")); err != nil {
		t.Fatal(err)
	}
	if b3, err := NewBroker(Options{Dir: dir}); err == nil {
		b3.Close()
		t.Fatal("a topic with a gap among its partitions opened")
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
	// A consumer that polls but never commits, then is replaced, must
	// not advance the group's offsets: its replacement re-receives
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
	// c1 is replaced without committing.
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

// BenchmarkProducerSendParallel publishes the same records keyless to 4
// partitions from every P (a 38-byte payload: the same 39-byte body) — the round-robin cursor is the one word the
// senders share, and each append takes only its partition log's lock.
func BenchmarkProducerSendParallel(b *testing.B) {
	br, err := NewBroker(Options{Dir: b.TempDir(), Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer br.Close()
	p := br.NewProducer()
	payload := bytes.Repeat([]byte("a"), 38)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := p.Send("actions", "", payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
