package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"tencentrec/internal/stream"
)

// Built-in workload kinds, registered for every cluster binary: a
// deterministic user-action generator spout, a pass-through relay bolt
// (something to kill), and a deduplicating per-item counter sink. They
// exist so the process tests, the kill -9 soak among them, exercise one
// exactness contract: generator output is a pure
// function of (seed, count, users, items), and the sink's msgid dedup
// turns the transport's at-least-once into exactly-once counts that can
// be checked against a sequential run of GenActions.

func init() {
	Kinds.Spouts["actions"] = stream.SpoutClassFunc(func(p map[string]string) stream.Spout { return newActionSpout(p) })
	Kinds.Bolts["relay"] = stream.BoltClassFunc(func(p map[string]string) stream.Bolt { return newRelayBolt(p) })
	Kinds.Bolts["count"] = stream.BoltClassFunc(func(p map[string]string) stream.Bolt { return newCountBolt(p) })
}

// Action is one synthetic user action.
type Action struct {
	User   string
	Item   string
	Weight float64
}

// GenActions returns the deterministic action sequence for a seed — the
// sequential reference the distributed run is checked against.
func GenActions(seed int64, n, users, items int) []Action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Action, n)
	for i := range out {
		// Square the item draw toward low ids for a Zipf-ish skew, so
		// fields grouping sees hot keys like a real item stream would.
		it := rng.Intn(items)
		if h := rng.Intn(items); h < it {
			it = h
		}
		out[i] = Action{
			User:   "u" + strconv.Itoa(rng.Intn(users)),
			Item:   "i" + strconv.Itoa(it),
			Weight: 1 + float64(rng.Intn(3)),
		}
	}
	return out
}

func paramInt(p map[string]string, key string, def int) int {
	if v, ok := p[key]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func paramInt64(p map[string]string, key string, def int64) int64 {
	if v, ok := p[key]; ok {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// actionFields is the stream schema shared by the workload kinds. msgid
// is the action's global index — unique, so the sink can dedup replays.
var actionFields = stream.Fields{"user", "item", "weight", "msgid"}

// actionSpout emits its task's share (idx % NumTasks == TaskIndex) of the
// generated sequence, anchored when acking is on, replaying failed ids
// and exhausting only once every emitted id is acked.
type actionSpout struct {
	seed                int64
	count, users, items int
	col                 stream.SpoutCollector
	ctx                 stream.TopologyContext
	actions             []Action
	next                int
	outstanding         int
	replay              []int64
	acking              bool
}

func newActionSpout(p map[string]string) *actionSpout {
	return &actionSpout{
		seed:  paramInt64(p, "seed", 1),
		count: paramInt(p, "count", 1000),
		users: paramInt(p, "users", 50),
		items: paramInt(p, "items", 20),
	}
}

func (s *actionSpout) Open(ctx stream.TopologyContext, col stream.SpoutCollector) error {
	s.ctx, s.col = ctx, col
	s.actions = GenActions(s.seed, s.count, s.users, s.items)
	s.acking = ctx.Acking
	return nil
}

func (s *actionSpout) emit(idx int64) {
	a := s.actions[idx]
	s.col.EmitAnchored(idx, stream.Values{a.User, a.Item, a.Weight, idx})
}

func (s *actionSpout) NextTuple() bool {
	if len(s.replay) > 0 {
		idx := s.replay[0]
		s.replay = s.replay[1:]
		s.emit(idx)
		return true
	}
	for s.next < len(s.actions) {
		idx := s.next
		s.next++
		if idx%s.ctx.NumTasks != s.ctx.TaskIndex {
			continue
		}
		if s.acking {
			s.outstanding++
		}
		s.emit(int64(idx))
		return true
	}
	return s.acking && s.outstanding > 0
}

func (s *actionSpout) Ack(interface{}) { s.outstanding-- }
func (s *actionSpout) Fail(msgID interface{}) {
	s.replay = append(s.replay, msgID.(int64))
}
func (s *actionSpout) Close() {}
func (s *actionSpout) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{stream.DefaultStream: actionFields}
}

// relayBolt passes actions through unchanged, optionally sleeping
// delay_us per tuple so a run stays in flight long enough to be killed
// mid-stream.
type relayBolt struct {
	delay time.Duration
	col   stream.Collector
}

func newRelayBolt(p map[string]string) *relayBolt {
	return &relayBolt{delay: time.Duration(paramInt64(p, "delay_us", 0)) * time.Microsecond}
}

func (b *relayBolt) Prepare(_ stream.TopologyContext, c stream.Collector) error {
	b.col = c
	return nil
}

func (b *relayBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return nil
	}
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	b.col.Emit(stream.Values{t.Value("user"), t.Value("item"), t.Value("weight"), t.Value("msgid")})
	return nil
}

func (b *relayBolt) Cleanup() {}
func (b *relayBolt) DeclareOutputFields() map[string]stream.Fields {
	return map[string]stream.Fields{stream.DefaultStream: actionFields}
}

// CountFile is the JSON document a count task writes: exactly-once
// per-item counts (after msgid dedup) plus delivery accounting.
type CountFile struct {
	Task      int              `json:"task"`
	Items     map[string]int64 `json:"items"`
	Delivered int64            `json:"delivered"`
	Dups      int64            `json:"dups"`
}

// countBolt counts actions per item with msgid dedup and publishes its
// counts to out/counts-<task>.json on every tick (atomic rename), so the
// file is live during a run and settled after the final tick.
type countBolt struct {
	out   string
	task  int
	seen  map[int64]struct{}
	state CountFile
}

func newCountBolt(p map[string]string) *countBolt {
	return &countBolt{out: p["out"]}
}

func (b *countBolt) Prepare(ctx stream.TopologyContext, _ stream.Collector) error {
	b.task = ctx.TaskIndex
	b.seen = make(map[int64]struct{})
	b.state = CountFile{Task: ctx.TaskIndex, Items: make(map[string]int64)}
	return nil
}

func (b *countBolt) Execute(t *stream.Tuple) error {
	if t.IsTick() {
		return b.publish()
	}
	id := t.Value("msgid").(int64)
	if _, dup := b.seen[id]; dup {
		b.state.Dups++
		return nil
	}
	b.seen[id] = struct{}{}
	b.state.Delivered++
	b.state.Items[t.Str("item")]++
	return nil
}

func (b *countBolt) publish() error {
	if b.out == "" {
		return nil
	}
	data, err := json.Marshal(&b.state)
	if err != nil {
		return err
	}
	tmp := filepath.Join(b.out, fmt.Sprintf(".counts-%d.tmp", b.task))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(b.out, fmt.Sprintf("counts-%d.json", b.task)))
}

func (b *countBolt) Cleanup() {
	// Orderly shutdown follows the final tick, but publish here too so a
	// tickless configuration still leaves a settled file behind.
	_ = b.publish()
}

// ReadCounts sums the per-task count files in dir into per-item totals.
func ReadCounts(dir string) (items map[string]int64, delivered, dups int64, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, "counts-*.json"))
	if err != nil {
		return nil, 0, 0, err
	}
	items = make(map[string]int64)
	for _, m := range matches {
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, 0, 0, err
		}
		var cf CountFile
		if err := json.Unmarshal(data, &cf); err != nil {
			return nil, 0, 0, fmt.Errorf("cluster: %s: %w", m, err)
		}
		for item, n := range cf.Items {
			items[item] += n
		}
		delivered += cf.Delivered
		dups += cf.Dups
	}
	return items, delivered, dups, nil
}
