package tdaccess

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
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

// Options configure a Broker.
type Options struct {
	// Dir is the root directory for partition logs. Required.
	Dir string
	// DataServers is the number of simulated data servers partitions are
	// spread over. Default 2.
	DataServers int
	// Partitions is the partition count for newly created topics.
	// Default 4.
	Partitions int
	// SegmentBytes overrides the per-segment size limit (testing).
	SegmentBytes int64
}

// partitionHandle binds a partition log to its owning data server.
type partitionHandle struct {
	log    *plog
	server int // index of the owning data server
	// stamps holds recent publish timestamps for lag measurement; nil
	// until the broker is instrumented (see observe.go).
	stamps *pubStamps
}

// topic is a named stream divided into partitions.
type topic struct {
	name  string
	parts []*partitionHandle
	// rr is the round-robin cursor for keyless sends.
	rr int
}

// groupKey identifies a consumer group's view of one topic.
type groupKey struct{ group, topic string }

// groupState tracks a consumer group's membership and committed offsets.
type groupState struct {
	members []string // consumer ids, sorted
	epoch   int64    // bumped on every rebalance
	offsets []int64  // committed offset per partition
}

// Broker is an in-process TDAccess cluster: data servers holding
// disk-backed partitions, and the one master that balances producers and
// consumers at partition granularity. The paper's standby master is left
// out: the process is the failure unit, and a crashed broker reopens its
// partitions from disk (DESIGN.md §2).
type Broker struct {
	opts Options

	mu     sync.Mutex
	topics map[string]*topic
	groups map[groupKey]*groupState
	// serverDown marks failed data servers; their partitions error until
	// revival (TDAccess replicates via disk, not across servers).
	serverDown []bool
	nextCID    int64
	closed     bool
	// ins is set by Instrument (under mu); nil on an uninstrumented
	// broker.
	ins *brokerInstruments
}

// NewBroker opens a broker rooted at opts.Dir, recovering any existing
// topic partitions from disk.
func NewBroker(opts Options) (*Broker, error) {
	if opts.Dir == "" {
		return nil, errors.New("tdaccess: Options.Dir is required")
	}
	if opts.DataServers <= 0 {
		opts.DataServers = 2
	}
	if opts.Partitions <= 0 {
		opts.Partitions = 4
	}
	b := &Broker{
		opts:       opts,
		topics:     make(map[string]*topic),
		groups:     make(map[groupKey]*groupState),
		serverDown: make([]bool, opts.DataServers),
	}
	// Recover topics persisted by a previous run.
	dirs, err := filepath.Glob(filepath.Join(opts.Dir, "*", "p-0"))
	if err != nil {
		return nil, fmt.Errorf("tdaccess: scan topics: %w", err)
	}
	for _, d := range dirs {
		name := filepath.Base(filepath.Dir(d))
		if _, err := b.getOrCreateTopic(name); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// KillDataServer fails one data server; sends and polls touching its
// partitions error until ReviveDataServer.
func (b *Broker) KillDataServer(i int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.serverDown) {
		return fmt.Errorf("tdaccess: no data server %d", i)
	}
	b.serverDown[i] = true
	return nil
}

// ReviveDataServer brings a data server back; its disk-cached partitions
// resume service with no data loss.
func (b *Broker) ReviveDataServer(i int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= len(b.serverDown) {
		return fmt.Errorf("tdaccess: no data server %d", i)
	}
	b.serverDown[i] = false
	return nil
}

// getOrCreateTopic opens a topic's partition logs, creating them on first
// use. Partitions are assigned to data servers round-robin, the
// partition-granular balance the master performs in §3.2.
func (b *Broker) getOrCreateTopic(name string) (*topic, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.getOrCreateTopicLocked(name)
}

func (b *Broker) getOrCreateTopicLocked(name string) (*topic, error) {
	if t, ok := b.topics[name]; ok {
		return t, nil
	}
	t := &topic{name: name}
	for p := 0; p < b.opts.Partitions; p++ {
		dir := filepath.Join(b.opts.Dir, name, fmt.Sprintf("p-%d", p))
		l, err := openLog(dir, b.opts.SegmentBytes)
		if err != nil {
			return nil, err
		}
		t.parts = append(t.parts, &partitionHandle{log: l, server: p % b.opts.DataServers})
	}
	b.topics[name] = t
	if b.ins != nil {
		b.registerTopicGaugesLocked(t)
	}
	return t, nil
}

// partitionFor picks the partition index for a key.
func (t *topic) partitionFor(key string) int {
	if key == "" {
		t.rr++
		return t.rr % len(t.parts)
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

// Close flushes and closes all partition logs.
func (b *Broker) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	var first error
	for _, t := range b.topics {
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
	b.mu.Lock()
	defer b.mu.Unlock()
	if t, ok := b.topics[name]; ok {
		return len(t.parts)
	}
	return 0
}

// CommittedOffset reports a group's committed offset for one partition
// of a topic, for monitoring consumer progress without joining the group.
func (b *Broker) CommittedOffset(group, topicName string, partition int) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("tdaccess: unknown topic %q", topicName)
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("tdaccess: topic %s has no partition %d", topicName, partition)
	}
	gs := b.groups[groupKey{group, topicName}]
	if gs == nil {
		return 0, nil
	}
	return gs.offsets[partition], nil
}

// EndOffset reports the offset the next message appended to one
// partition of a topic will get: everything below it is in the log.
func (b *Broker) EndOffset(topicName string, partition int) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[topicName]
	if !ok {
		return 0, fmt.Errorf("tdaccess: unknown topic %q", topicName)
	}
	if partition < 0 || partition >= len(t.parts) {
		return 0, fmt.Errorf("tdaccess: topic %s has no partition %d", topicName, partition)
	}
	return t.parts[partition].log.NextOffset(), nil
}

// SeedCommittedOffsets installs a group's committed offsets for a topic
// before any consumer joins — the cold-restart path: the broker's group
// state is in-memory and dies with the process, so a restore replants
// the checkpoint manifest's frontier here and consumers then resume
// reading right after it. Seeding is monotone per partition (an existing
// higher commit wins), so replaying a stale manifest can never rewind a
// group. The topic is created if its partitions are not yet open.
func (b *Broker) SeedCommittedOffsets(group, topicName string, offsets []int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, err := b.getOrCreateTopicLocked(topicName)
	if err != nil {
		return err
	}
	if len(offsets) != len(t.parts) {
		return fmt.Errorf("tdaccess: seed offsets: %d offsets for %d partitions of %s",
			len(offsets), len(t.parts), topicName)
	}
	gk := groupKey{group, topicName}
	gs := b.groups[gk]
	if gs == nil {
		gs = &groupState{offsets: make([]int64, len(t.parts))}
		b.groups[gk] = gs
	}
	for p, off := range offsets {
		if off > gs.offsets[p] {
			gs.offsets[p] = off
		}
	}
	return nil
}

// rebalanceLocked recomputes a group's partition assignment after a
// membership change. Offsets are preserved; the epoch bump tells each
// consumer to refetch its assignment.
func (b *Broker) rebalanceLocked(gk groupKey, t *topic) {
	gs := b.groups[gk]
	if gs == nil {
		gs = &groupState{offsets: make([]int64, len(t.parts))}
		b.groups[gk] = gs
	}
	sort.Strings(gs.members)
	gs.epoch++
}

// assignmentLocked returns the partitions owned by consumer cid under the
// group's current membership: partitions are dealt round-robin over the
// sorted member list.
func (b *Broker) assignmentLocked(gk groupKey, cid string, t *topic) []int {
	gs := b.groups[gk]
	if gs == nil {
		return nil
	}
	pos := -1
	for i, m := range gs.members {
		if m == cid {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil
	}
	var out []int
	for p := range t.parts {
		if p%len(gs.members) == pos {
			out = append(out, p)
		}
	}
	return out
}
