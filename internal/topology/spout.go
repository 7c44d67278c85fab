package topology

import (
	"fmt"
	"sync/atomic"
	"time"

	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
)

// rawFields is the default-stream schema every action spout emits: the
// raw message bytes, parsed downstream by Pretreatment.
var rawFields = stream.Fields{"raw"}

// TDAccessSpout consumes an application's action topic from TDAccess and
// feeds the topology — the production ingestion path of Fig. 9
// ("TDProcess gets data streams from various applications with the help
// of TDAccess").
//
// It commits each poll once the poll's messages are emitted. A crash
// inside the process loses nothing a restarted task's queue still holds;
// across processes, recovery is checkpoint replay from the committed
// offsets the checkpoint recorded (DESIGN.md §11).
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
func (s *TDAccessSpout) Open(_ stream.TopologyContext, c stream.SpoutCollector) error {
	s.c = c
	s.consumer = s.broker.NewConsumer(s.group)
	if err := s.consumer.Subscribe(s.topic); err != nil {
		return fmt.Errorf("topology: spout subscribe: %w", err)
	}
	return nil
}

// NextTuple implements stream.Spout.
func (s *TDAccessSpout) NextTuple() bool {
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
		if s.stopWhenDrained {
			return false
		}
		s.drained = true
	}
	return true
}

// emit sends one poll's messages into the topology and commits the poll.
// The in-memory read positions advanced at Poll, so an emitted batch is
// never re-read by this consumer whether or not the commit lands — a
// commit error only means a replacement group member would re-read it.
func (s *TDAccessSpout) emit(msgs []tdaccess.Message) {
	if len(msgs) == 0 {
		return
	}
	for _, m := range msgs {
		s.c.Emit(stream.Values{m.Payload})
		if s.emitted != nil {
			s.emitted.Add(1)
		}
	}
	_ = s.consumer.Commit()
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
// benchmark ingestion path — emitting each action once.
type SliceSpout struct {
	actions []RawAction
	next    int
	c       stream.SpoutCollector
	task    int
	tasks   int
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
	return nil
}

// NextTuple implements stream.Spout.
func (s *SliceSpout) NextTuple() bool {
	if s.next >= len(s.actions) {
		return false
	}
	s.c.Emit(stream.Values{EncodeAction(s.actions[s.next])})
	s.next += s.tasks
	return true
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
