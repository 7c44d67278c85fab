package topology

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
)

// rawFields is the default-stream schema every action spout emits: the
// raw message bytes, parsed downstream by Pretreatment, plus the spout
// message id ("" or absent when the spout has none) used by the
// Pretreatment dedup guard. Spouts without ids may emit just the raw
// value; TryValue("msgid") then reports absent.
var rawFields = stream.Fields{"raw", "msgid"}

// spoutMsgID identifies one TDAccess message held in the spout's pending
// window. It is comparable, so ids survive a spout-task restart: the
// replacement instance re-polls the same (partition, offset) pairs and
// late ack results for the old instance's emissions still resolve.
type spoutMsgID struct {
	Partition int
	Offset    int64
}

func (id spoutMsgID) tag() string {
	var buf [40]byte // two decimal int64s and the slash
	b := strconv.AppendInt(buf[:0], int64(id.Partition), 10)
	b = strconv.AppendInt(append(b, '/'), id.Offset, 10)
	return string(b)
}

// pendingMsg is one polled-but-not-committed message. Its payload
// aliases the buffer of the poll that read it (tdaccess.Consumer.Poll),
// so an un-acked message keeps that whole run alive: polling pauses at
// maxInflight un-acked messages, which bounds the pinned runs too.
type pendingMsg struct {
	payload []byte
	acked   bool
}

// partPending is one partition's pending window: the contiguous acked
// frontier (everything below next is committed broker-side) plus the
// in-flight and out-of-order-acked messages at or beyond it.
type partPending struct {
	next int64
	msgs map[int64]*pendingMsg
}

// TDAccessSpout consumes an application's action topic from TDAccess and
// feeds the topology — the production ingestion path of Fig. 9
// ("TDProcess gets data streams from various applications with the help
// of TDAccess").
//
// With topology acking enabled (TopologyBuilder.SetAcking) the spout is
// an at-least-once source: polled messages are held in a pending window
// keyed by (partition, offset), emissions are anchored, failed lineages
// are re-emitted from the retained payload, and the consumer offset is
// committed only up to the contiguous acked frontier — so a crash
// anywhere downstream replays from the broker instead of losing data.
// Without acking it commits right after emit (at-most-once).
type TDAccessSpout struct {
	broker *tdaccess.Broker
	topic  string
	group  string
	// PollBatch bounds messages fetched per NextTuple. Default 256.
	pollBatch int
	// idleSleep throttles polling when the topic is drained: the poll
	// after an empty one waits this long first. The empty poll itself
	// returns at once, so the engine hands over what the poll before it
	// emitted (an idle poll flushes the collector) instead of holding it
	// in the spout's buffer through the sleep.
	idleSleep time.Duration
	drained   bool
	// stopWhenDrained makes NextTuple return false once the topic is
	// empty — finite-run mode for tests and benches. Production spouts
	// keep polling forever.
	stopWhenDrained bool

	c        stream.SpoutCollector
	consumer *tdaccess.Consumer

	// acking reports whether the enclosing topology tracks lineages; the
	// pending window is only maintained (and NextTuple only waits for
	// outstanding acks before exhausting) when it does.
	acking bool
	// pending is the per-partition replay window.
	pending map[int]*partPending
	// inflight counts messages emitted but not yet acked; polling pauses
	// at maxInflight so a stalled topology bounds spout memory.
	inflight    int
	maxInflight int

	// emitted, when set, counts messages this spout emitted — all tasks
	// of a group share one counter. After a checkpoint restore it reads
	// as "records replayed past the frontier".
	emitted *atomic.Int64

	// errBackoff is the current poll-error sleep. It starts at
	// idleSleep/4 on the first error, doubles per consecutive error up
	// to 16×idleSleep, and resets on any successful poll — the same
	// capped-exponential shape as the engine's waitQuiescent loop, so a
	// brief broker hiccup costs microseconds while a dead data server
	// does not spin the task.
	errBackoff time.Duration
}

// TDAccessSpoutConfig configures a TDAccessSpout factory.
type TDAccessSpoutConfig struct {
	Broker *tdaccess.Broker
	Topic  string
	// Group is the consumer group; parallel spout tasks in one group
	// split the topic's partitions.
	Group string
	// StopWhenDrained ends the spout once the topic is empty.
	StopWhenDrained bool
	// PollBatch bounds messages per poll. Default 256.
	PollBatch int
	// IdleSleep throttles empty polls. Default 2ms.
	IdleSleep time.Duration
	// Emitted, when non-nil, is incremented once per message emitted by
	// any task of this spout. On a run restored from a checkpoint it
	// measures exactly the tail replayed past the committed frontier.
	Emitted *atomic.Int64
}

// NewTDAccessSpout returns the spout factory.
func NewTDAccessSpout(cfg TDAccessSpoutConfig) stream.SpoutFactory {
	if cfg.PollBatch <= 0 {
		cfg.PollBatch = 256
	}
	if cfg.IdleSleep <= 0 {
		cfg.IdleSleep = 2 * time.Millisecond
	}
	return func() stream.Spout {
		return &TDAccessSpout{
			broker:          cfg.Broker,
			topic:           cfg.Topic,
			group:           cfg.Group,
			pollBatch:       cfg.PollBatch,
			idleSleep:       cfg.IdleSleep,
			stopWhenDrained: cfg.StopWhenDrained,
			emitted:         cfg.Emitted,
		}
	}
}

// Open implements stream.Spout.
func (s *TDAccessSpout) Open(ctx stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	s.acking = ctx.Acking
	s.pending = make(map[int]*partPending)
	s.maxInflight = 4 * s.pollBatch
	s.consumer = s.broker.NewConsumer(s.group)
	if err := s.consumer.Subscribe(s.topic); err != nil {
		return fmt.Errorf("topology: spout subscribe: %w", err)
	}
	return nil
}

// window returns (lazily creating) the pending window of a partition.
// A partition first seen at offset off — right after Subscribe or a
// group rebalance — starts its frontier there: the consumer resumes from
// the group's committed offsets, so off is exactly the first uncommitted
// message.
func (s *TDAccessSpout) window(partition int, off int64) *partPending {
	pp := s.pending[partition]
	if pp == nil {
		pp = &partPending{next: off, msgs: make(map[int64]*pendingMsg)}
		s.pending[partition] = pp
	}
	return pp
}

// NextTuple implements stream.Spout.
func (s *TDAccessSpout) NextTuple() bool {
	if s.acking && s.inflight >= s.maxInflight {
		// The topology is behind; wait for acks (delivered between
		// NextTuple calls) before polling more.
		time.Sleep(s.idleSleep)
		return true
	}
	if s.drained {
		time.Sleep(s.idleSleep)
	}
	// Poll hands back what the partitions before a failing one gave, and
	// their read positions have already moved past it: emit that first.
	msgs, err := s.consumer.Poll(s.pollBatch)
	s.drained = false
	s.emit(msgs)
	if err != nil {
		// Data-server hiccup: capped exponential backoff. TDAccess
		// retains the data on disk, so nothing is lost by waiting.
		if s.errBackoff == 0 {
			s.errBackoff = s.idleSleep / 4
		} else if s.errBackoff < 16*s.idleSleep {
			s.errBackoff *= 2
		}
		time.Sleep(s.errBackoff)
		return true
	}
	s.errBackoff = 0
	if len(msgs) == 0 {
		if s.stopWhenDrained && (!s.acking || s.inflight == 0) {
			return false
		}
		s.drained = true
	}
	return true
}

// emit sends one poll's messages into the topology.
func (s *TDAccessSpout) emit(msgs []tdaccess.Message) {
	if len(msgs) == 0 {
		return
	}
	if !s.acking {
		for _, m := range msgs {
			s.c.Emit(stream.Values{m.Payload, spoutMsgID{m.Partition, m.Offset}.tag()})
			if s.emitted != nil {
				s.emitted.Add(1)
			}
		}
		// At-most-once: the in-memory read positions advanced at Poll,
		// so an emitted batch is never re-read by this consumer whether
		// or not the commit lands — a commit error only means a
		// replacement group member would re-read it. With acking on,
		// commits instead track the acked frontier (see Ack), which is
		// what makes a broker-side retry real.
		_ = s.consumer.Commit()
		return
	}
	for _, m := range msgs {
		pp := s.window(m.Partition, m.Offset)
		if m.Offset < pp.next {
			continue // already committed: a rebalance re-read
		}
		if _, dup := pp.msgs[m.Offset]; dup {
			continue // already in flight
		}
		pp.msgs[m.Offset] = &pendingMsg{payload: m.Payload}
		s.inflight++
		id := spoutMsgID{m.Partition, m.Offset}
		s.c.EmitAnchored(id, stream.Values{m.Payload, id.tag()})
		if s.emitted != nil {
			s.emitted.Add(1)
		}
	}
}

// Ack implements stream.AckingSpout: the message's whole lineage
// executed. The contiguous acked frontier advances past every acked
// prefix and is committed broker-side, so a replacement consumer resumes
// exactly at the first message not fully processed.
func (s *TDAccessSpout) Ack(msgID interface{}) {
	id, ok := msgID.(spoutMsgID)
	if !ok {
		return
	}
	pp := s.pending[id.Partition]
	if pp == nil {
		return
	}
	pm := pp.msgs[id.Offset]
	if pm == nil || pm.acked {
		return // unknown or duplicate result (e.g. a pre-restart lineage)
	}
	pm.acked = true
	pm.payload = nil // an acked message is never replayed; unpin its poll buffer
	s.inflight--
	advanced := false
	for {
		pm, ok := pp.msgs[pp.next]
		if !ok || !pm.acked {
			break
		}
		delete(pp.msgs, pp.next)
		pp.next++
		advanced = true
	}
	if advanced {
		// Commit errors leave the frontier where it was; a replacement
		// would replay a little more, which at-least-once permits.
		_ = s.consumer.CommitTo(id.Partition, pp.next)
	}
}

// Fail implements stream.AckingSpout: some tuple of the message's
// lineage was dropped or timed out, so the retained payload is replayed
// under the same id.
func (s *TDAccessSpout) Fail(msgID interface{}) {
	id, ok := msgID.(spoutMsgID)
	if !ok {
		return
	}
	pp := s.pending[id.Partition]
	if pp == nil {
		return
	}
	pm := pp.msgs[id.Offset]
	if pm == nil || pm.acked {
		return // already committed by an earlier duplicate lineage
	}
	s.c.EmitAnchored(id, stream.Values{pm.payload, id.tag()})
}

// Close implements stream.Spout.
func (s *TDAccessSpout) Close() {
	if s.consumer != nil {
		s.consumer.Unsubscribe()
	}
}

// DeclareOutputFields implements stream.OutputDeclarer.
func (s *TDAccessSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{stream.DefaultStream: rawFields}
}

// SliceSpout replays a fixed slice of raw actions — the test and
// benchmark ingestion path. With topology acking on, each action is
// emitted anchored to its slice index, a failed lineage is re-emitted, and
// the spout exhausts only after every action has been acknowledged; with
// acking off it emits each action once, unanchored.
type SliceSpout struct {
	actions []RawAction
	next    int
	c       stream.SpoutCollector
	task    int
	tasks   int
	acking  bool
	pending map[int]bool
	replayQ []int
}

// NewSliceSpout returns a spout factory replaying actions. With
// parallelism n, task i replays the i-th residue class, so the full
// slice is emitted exactly once across tasks.
func NewSliceSpout(actions []RawAction) stream.SpoutFactory {
	return func() stream.Spout { return &SliceSpout{actions: actions} }
}

// Open implements stream.Spout.
func (s *SliceSpout) Open(ctx stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	s.task = ctx.TaskIndex
	s.tasks = ctx.NumTasks
	s.next = s.task
	s.acking = ctx.Acking
	s.pending = make(map[int]bool)
	return nil
}

// NextTuple implements stream.Spout.
func (s *SliceSpout) NextTuple() bool {
	if len(s.replayQ) > 0 {
		i := s.replayQ[0]
		s.replayQ = s.replayQ[1:]
		s.c.EmitAnchored(i, stream.Values{EncodeAction(s.actions[i])})
		return true
	}
	if s.next >= len(s.actions) {
		if len(s.pending) > 0 {
			time.Sleep(50 * time.Microsecond) // wait for outstanding acks
			return true
		}
		return false
	}
	i := s.next
	s.next += s.tasks
	if !s.acking {
		s.c.Emit(stream.Values{EncodeAction(s.actions[i])})
		return true
	}
	s.pending[i] = true
	s.c.EmitAnchored(i, stream.Values{EncodeAction(s.actions[i])})
	return true
}

// Ack implements stream.AckingSpout.
func (s *SliceSpout) Ack(msgID interface{}) {
	if i, ok := msgID.(int); ok {
		delete(s.pending, i)
	}
}

// Fail implements stream.AckingSpout.
func (s *SliceSpout) Fail(msgID interface{}) {
	if i, ok := msgID.(int); ok && s.pending[i] {
		s.replayQ = append(s.replayQ, i)
	}
}

// Close implements stream.Spout.
func (s *SliceSpout) Close() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (s *SliceSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{stream.DefaultStream: rawFields}
}

// ItemFeedSpout replays item metadata (for the CB chain's ItemInfo unit).
type ItemFeedSpout struct {
	items []ItemMeta
	next  int
	c     stream.SpoutCollector
	task  int
	tasks int
}

// ItemMeta is one item's content metadata.
type ItemMeta struct {
	ID        string
	Terms     []string
	Published time.Time
}

// NewItemFeedSpout returns a spout factory replaying item metadata on the
// item_info stream.
func NewItemFeedSpout(items []ItemMeta) stream.SpoutFactory {
	return func() stream.Spout { return &ItemFeedSpout{items: items} }
}

// Open implements stream.Spout.
func (s *ItemFeedSpout) Open(ctx stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	s.task = ctx.TaskIndex
	s.tasks = ctx.NumTasks
	s.next = s.task
	return nil
}

// NextTuple implements stream.Spout.
func (s *ItemFeedSpout) NextTuple() bool {
	if s.next >= len(s.items) {
		return false
	}
	it := s.items[s.next]
	s.c.EmitTo(StreamItemInfo, stream.Values{it.ID, it.Terms, it.Published.UnixNano()})
	s.next += s.tasks
	return true
}

// Close implements stream.Spout.
func (s *ItemFeedSpout) Close() {}

// DeclareOutputFields implements stream.OutputDeclarer.
func (s *ItemFeedSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{StreamItemInfo: {"item", "terms", "published"}}
}
