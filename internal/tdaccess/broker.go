package tdaccess

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Message is one record published through TDAccess.
type Message struct {
	// Topic names the stream of an application's data.
	Topic string
	// Partition is the partition the message was stored in.
	Partition int
	// Offset is the message's position within its partition.
	Offset int64
	// Key selects the partition (hashed); empty keys round-robin.
	Key string
	// Payload is the application data.
	Payload []byte
}

// appendMessage frames key and payload as one record body,
// uvarint(len(key)) | key | payload, written straight into the log.
func appendMessage(l *plog, key string, payload []byte) (int64, error) {
	var klen [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(klen[:], uint64(len(key)))
	return l.appendParts(klen[:n], key, payload)
}

// decodeMessage splits a record body back into key and payload. The
// payload aliases body.
func decodeMessage(body []byte) (key string, payload []byte, err error) {
	klen, n := binary.Uvarint(body)
	if n <= 0 || uint64(len(body)-n) < klen {
		return "", nil, errors.New("tdaccess: corrupt message frame")
	}
	key = string(body[n : n+int(klen)])
	payload = body[n+int(klen):]
	return key, payload, nil
}

// ErrClosed is what a Send, Poll or Subscribe returns once the broker is
// closed, as does the first use of a topic after Close.
var ErrClosed = errors.New("tdaccess: broker closed")

// Options configure a Broker.
type Options struct {
	// Dir is the root directory for partition logs. Required.
	Dir string
	// Partitions is the partition count for newly created topics; a topic
	// found on disk keeps the count it has there. Default 4.
	Partitions int
	// SegmentBytes overrides the per-segment size limit (testing).
	SegmentBytes int64
}

// partitionHandle is one partition's log.
type partitionHandle struct {
	log *plog
	// stamps holds recent publish timestamps for lag measurement; nil
	// until the broker is instrumented (see observe.go).
	stamps *pubStamps
}

// topic is a named stream divided into partitions. Its partitions are
// fixed once it is published in the broker's topic table.
type topic struct {
	name  string
	parts []*partitionHandle
	// rr is the round-robin cursor for keyless sends.
	rr atomic.Uint64
}

// groupKey identifies a consumer group's view of one topic.
type groupKey struct{ group, topic string }

// Broker is an in-process TDAccess cluster: disk-backed partition logs,
// and the one master that keeps each consumer group's committed offsets.
// Producers and consumers work at partition granularity. The paper's
// data servers and standby master are left out: the process is the
// failure unit, and a crashed broker reopens its partitions from disk
// (DESIGN.md §2).
type Broker struct {
	opts Options

	// topics is the topic table, copied on write under mu: a lookup
	// takes no lock.
	topics atomic.Pointer[map[string]*topic]
	// ins is set by Instrument; nil on an uninstrumented broker.
	ins atomic.Pointer[brokerInstruments]

	// mu serialises topic creation, the committed offsets and Close.
	mu sync.Mutex
	// groups holds each consumer group's committed offset per partition.
	groups map[groupKey][]int64
	closed bool
}

// NewBroker opens a broker rooted at opts.Dir, recovering any existing
// topic partitions from disk.
func NewBroker(opts Options) (*Broker, error) {
	if opts.Dir == "" {
		return nil, errors.New("tdaccess: Options.Dir is required")
	}
	if opts.Partitions <= 0 {
		opts.Partitions = 4
	}
	b := &Broker{opts: opts, groups: make(map[groupKey][]int64)}
	b.topics.Store(&map[string]*topic{})
	// Recover topics persisted by a previous run.
	dirs, err := filepath.Glob(filepath.Join(opts.Dir, "*", "p-0"))
	if err != nil {
		return nil, fmt.Errorf("tdaccess: scan topics: %w", err)
	}
	for _, d := range dirs {
		if _, err := b.topic(filepath.Base(filepath.Dir(d))); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

// FailPartition arms err on one partition of a topic: its appends and
// reads return err and change nothing until a call with a nil err.
func (b *Broker) FailPartition(topicName string, partition int, err error) error {
	ph, perr := b.partition(topicName, partition)
	if perr != nil {
		return perr
	}
	ph.log.failWith(err)
	return nil
}

// topic returns the named topic, opening its partition logs on first use.
func (b *Broker) topic(name string) (*topic, error) {
	if t := (*b.topics.Load())[name]; t != nil {
		return t, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.topicLocked(name)
}

// topicLocked is topic under b.mu, checking the table again so that two
// first users never open a partition twice. A topic found on disk keeps
// the partitions it has there; a new one gets Options.Partitions. After
// Close it opens nothing and returns ErrClosed.
func (b *Broker) topicLocked(name string) (*topic, error) {
	if b.closed {
		return nil, ErrClosed
	}
	old := *b.topics.Load()
	if t := old[name]; t != nil {
		return t, nil
	}
	dir := filepath.Join(b.opts.Dir, name)
	n, err := partitionsOnDisk(dir)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		n = b.opts.Partitions
	}
	t := &topic{name: name, parts: make([]*partitionHandle, n)}
	for p := range t.parts {
		l, err := openLog(filepath.Join(dir, fmt.Sprintf("p-%d", p)), b.opts.SegmentBytes)
		if err != nil {
			for _, ph := range t.parts[:p] {
				ph.log.Close()
			}
			return nil, err
		}
		t.parts[p] = &partitionHandle{log: l}
	}
	if ins := b.ins.Load(); ins != nil {
		b.registerTopicGaugesLocked(ins, t)
	}
	next := make(map[string]*topic, len(old)+1)
	maps.Copy(next, old)
	next[name] = t
	b.topics.Store(&next)
	return t, nil
}

// partitionsOnDisk counts a topic's p-N directories, which must run from
// p-0 with no gap: a key's partition is its hash modulo the count.
func partitionsOnDisk(dir string) (int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "p-*"))
	if err != nil {
		return 0, fmt.Errorf("tdaccess: scan partitions: %w", err)
	}
	for p := range names {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("p-%d", p))); err != nil {
			return 0, fmt.Errorf("tdaccess: %s holds %d partitions but no p-%d", dir, len(names), p)
		}
	}
	return len(names), nil
}

// partition returns one partition of an existing topic.
func (b *Broker) partition(topicName string, partition int) (*partitionHandle, error) {
	t := (*b.topics.Load())[topicName]
	if t == nil {
		return nil, fmt.Errorf("tdaccess: unknown topic %q", topicName)
	}
	if partition < 0 || partition >= len(t.parts) {
		return nil, fmt.Errorf("tdaccess: topic %s has no partition %d", topicName, partition)
	}
	return t.parts[partition], nil
}

// partitionFor picks the partition index for a key.
func (t *topic) partitionFor(key string) int {
	if key == "" {
		return int(t.rr.Add(1) % uint64(len(t.parts)))
	}
	return int(hashString(key) % uint32(len(t.parts)))
}

func hashString(s string) uint32 {
	// FNV-1a inlined to avoid an allocation per send.
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// Close flushes and closes all partition logs. A closed log returns
// ErrClosed to its appends and reads.
func (b *Broker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var first error
	for _, t := range *b.topics.Load() {
		for _, p := range t.parts {
			if err := p.log.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// TopicPartitions reports the partition count of a topic (0 if absent).
func (b *Broker) TopicPartitions(name string) int {
	if t := (*b.topics.Load())[name]; t != nil {
		return len(t.parts)
	}
	return 0
}

// CommittedOffset reports a group's committed offset for one partition
// of a topic, for monitoring consumer progress without subscribing.
func (b *Broker) CommittedOffset(group, topicName string, partition int) (int64, error) {
	if _, err := b.partition(topicName, partition); err != nil {
		return 0, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if offsets := b.groups[groupKey{group, topicName}]; offsets != nil {
		return offsets[partition], nil
	}
	return 0, nil
}

// EndOffset reports the offset the next message appended to one
// partition of a topic will get: everything below it is in the log.
func (b *Broker) EndOffset(topicName string, partition int) (int64, error) {
	ph, err := b.partition(topicName, partition)
	if err != nil {
		return 0, err
	}
	return ph.log.NextOffset(), nil
}

// SeedCommittedOffsets installs a group's committed offsets for a topic
// before any of its consumers subscribes — the cold-restart path: the
// broker's group state is in-memory and dies with the process, so a
// restore replants the checkpoint manifest's frontier here and consumers
// then resume reading right after it. Seeding is monotone per partition (an existing
// higher commit wins), so replaying a stale manifest can never rewind a
// group. The topic is created if its partitions are not yet open.
func (b *Broker) SeedCommittedOffsets(group, topicName string, offsets []int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, err := b.topicLocked(topicName)
	if err != nil {
		return err
	}
	if len(offsets) != len(t.parts) {
		return fmt.Errorf("tdaccess: seed offsets: %d offsets for %d partitions of %s",
			len(offsets), len(t.parts), topicName)
	}
	committed := b.groupOffsetsLocked(group, t)
	for p, off := range offsets {
		committed[p] = max(committed[p], off)
	}
	return nil
}

// groupOffsetsLocked returns a group's committed offsets for topic t,
// all 0 for a group that has none yet. Caller holds b.mu.
func (b *Broker) groupOffsetsLocked(group string, t *topic) []int64 {
	gk := groupKey{group, t.name}
	offsets := b.groups[gk]
	if offsets == nil {
		offsets = make([]int64, len(t.parts))
		b.groups[gk] = offsets
	}
	return offsets
}
