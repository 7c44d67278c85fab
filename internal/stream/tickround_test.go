package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tickLog records, for every tick a bolt executed, the round that sent it
// (a round's ticks share one tickDone) and where its execution began and
// ended on one global sequence.
type tickLog struct {
	seq atomic.Int64
	mu  sync.Mutex
	evs []tickEvent
}

type tickEvent struct {
	round      *sync.WaitGroup
	comp       string
	start, end int64
}

// tickLogBolt logs its ticks. A data tuple costs it work (so a small queue
// saturates and ticks are skipped) when slow is set, and the instance made
// while failNext is set fails its Prepare.
type tickLogBolt struct {
	log      *tickLog
	comp     string
	slow     *atomic.Bool
	failNext *atomic.Bool
}

func (b *tickLogBolt) Prepare(TopologyContext, Collector) error {
	if b.failNext != nil && b.failNext.CompareAndSwap(true, false) {
		return errors.New("prepare failed")
	}
	return nil
}

func (b *tickLogBolt) Cleanup() {}

func (b *tickLogBolt) Execute(tp *Tuple) error {
	if !tp.IsTick() {
		if b.slow != nil && b.slow.Load() {
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}
	start := b.log.seq.Add(1)
	time.Sleep(50 * time.Microsecond) // a flush takes time: widen the window a bad order would show in
	end := b.log.seq.Add(1)
	b.log.mu.Lock()
	b.log.evs = append(b.log.evs, tickEvent{round: tp.tickDone, comp: b.comp, start: start, end: end})
	b.log.mu.Unlock()
	return nil
}

// rounds groups the log by round: for each, how many ticks of "a" were
// executed and when the last ended, and how many of "b" and when the first
// began.
type roundSummary struct {
	aTicks, bTicks  int
	aEnd, bStart    int64
	bStartedTooSoon bool
}

func (l *tickLog) rounds() map[*sync.WaitGroup]*roundSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[*sync.WaitGroup]*roundSummary)
	for _, e := range l.evs {
		r := out[e.round]
		if r == nil {
			r = &roundSummary{}
			out[e.round] = r
		}
		if e.comp == "a" {
			r.aTicks++
			r.aEnd = max(r.aEnd, e.end)
		} else {
			if r.bTicks == 0 || e.start < r.bStart {
				r.bStart = e.start
			}
			r.bTicks++
		}
	}
	for _, r := range out {
		r.bStartedTooSoon = r.aTicks > 0 && r.bTicks > 0 && r.bStart < r.aEnd
	}
	return out
}

func (l *tickLog) ticksOf(comp string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.evs {
		if e.comp == comp {
			n++
		}
	}
	return n
}

// waitTicks blocks until comp has executed n more ticks.
func (l *tickLog) waitTicks(t *testing.T, comp string, n int) {
	t.Helper()
	from := l.ticksOf(comp)
	deadline := time.Now().Add(10 * time.Second)
	for l.ticksOf(comp) < from+n {
		if time.Now().After(deadline) {
			t.Fatalf("%s executed %d ticks in 10s, want %d more", comp, l.ticksOf(comp)-from, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// tickRoundTopology is a spout feeding two ticked bolts registered a then b
// (unconnected, so registration order is the only thing that orders them),
// two tasks each.
func tickRoundTopology(t *testing.T, log *tickLog, slow, failNext *atomic.Bool, depth int) *RunningTopology {
	t.Helper()
	var emitted atomic.Int64
	tb := NewTopologyBuilder("tickround")
	tb.SetQueueDepth(depth)
	tb.SetSpout("spout", func() Spout { return &tickingSpout{emitted: &emitted} }, 1)
	tb.SetBolt("a", func() Bolt { return &tickLogBolt{log: log, comp: "a", slow: slow, failNext: failNext} }, 2).
		On("spout", DefaultStream, byFields("n")).Tick(time.Millisecond)
	tb.SetBolt("b", func() Bolt { return &tickLogBolt{log: log, comp: "b"} }, 2).
		On("spout", DefaultStream, byFields("n")).Tick(time.Millisecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo.Submit()
}

// TestTickRoundOrder: in every round — periodic, rebalance pre-flush and
// shutdown cascade alike — no task of b begins its tick before every task
// of a has finished its own, across two rebalances of a.
func TestTickRoundOrder(t *testing.T) {
	log := &tickLog{}
	h := tickRoundTopology(t, log, nil, nil, DefaultQueueDepth)
	log.waitTicks(t, "b", 20)
	for _, n := range []int{3, 1} {
		if err := h.Rebalance("a", n); err != nil {
			t.Fatal(err)
		}
		log.waitTicks(t, "b", 20)
	}
	h.Stop()
	h.Wait()
	full := 0
	for _, r := range log.rounds() {
		if r.bStartedTooSoon {
			t.Fatalf("a task of b began its tick at %d, before a's last tick of the round ended at %d", r.bStart, r.aEnd)
		}
		if r.aTicks > 0 && r.bTicks > 0 {
			full++
		}
	}
	if full < 30 {
		t.Fatalf("only %d rounds reached both bolts", full)
	}
}

// TestTickRoundReleasedBySkipAndDrop: a round is not held by a tick that
// will never execute. With a's queues full its ticks are skipped and
// counted; when a task of the generation a rebalance spawns fails its
// Prepare, its queued ticks are dropped unexecuted; either way the round
// still reaches b.
func TestTickRoundReleasedBySkipAndDrop(t *testing.T) {
	log := &tickLog{}
	var slow, failNext atomic.Bool
	slow.Store(true)
	h := tickRoundTopology(t, log, &slow, &failNext, 1)
	deadline := time.Now().Add(10 * time.Second)
	for h.Metrics().Components["a"].TicksSkipped < 5 {
		if time.Now().After(deadline) {
			t.Fatal("a's full queues never skipped a tick")
		}
		time.Sleep(time.Millisecond)
	}
	log.waitTicks(t, "b", 10)
	skippedRounds := 0
	for _, r := range log.rounds() {
		if r.bTicks > 0 && r.aTicks < 2 {
			skippedRounds++
		}
	}
	if skippedRounds == 0 {
		t.Fatal("no round with a skipped tick of a reached b")
	}

	slow.Store(false)
	failNext.Store(true)
	if err := h.Rebalance("a", 3); err != nil {
		t.Fatal(err)
	}
	for failNext.Load() {
		time.Sleep(200 * time.Microsecond)
	}
	aBefore := log.ticksOf("a")
	log.waitTicks(t, "b", 40) // 20 rounds, each also sent to the dead task
	if got := log.ticksOf("a") - aBefore; got < 10 {
		t.Fatalf("a's surviving tasks executed %d ticks while b executed 40", got)
	}
	h.Stop()
	h.Wait()
	for _, r := range log.rounds() {
		if r.bStartedTooSoon {
			t.Fatalf("a task of b began its tick at %d, before a's last tick of the round ended at %d", r.bStart, r.aEnd)
		}
	}
}

// idleSpout never emits.
type idleSpout struct{}

func (idleSpout) Open(TopologyContext, SpoutCollector) error { return nil }
func (idleSpout) Close()                                     {}
func (idleSpout) NextTuple() bool                            { time.Sleep(100 * time.Microsecond); return true }
func (idleSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"gate"}}
}

// gateTuple is a data tuple whose Execute blocks until gate is closed.
func gateTuple(gate chan struct{}) []*Tuple {
	return []*Tuple{{Component: "spout", Stream: DefaultStream, Values: Values{gate}, fields: Fields{"gate"}}}
}

// TestTickEmissionsLeaveWithTheTick: what a bolt emits in its tick is in the
// downstream queues before the round is told the tick has executed. Bolt a
// is backlogged (a batch waits behind its tick, so its collector is not
// flushed by an empty queue) and emits in its tick; b, next in the round and
// subscribed to a, must find a's emission ahead of its own tick. Without
// the flush the emission waits in a's collector for up to sixteen batches
// while b's tick overtakes it.
func TestTickEmissionsLeaveWithTheTick(t *testing.T) {
	var mu sync.Mutex
	gotFlush, flushBeforeTick := false, false
	ticked := make(chan struct{})
	var tickedOnce sync.Once
	tb := NewTopologyBuilder("tick-flush")
	tb.SetSpout("spout", func() Spout { return idleSpout{} }, 1)
	tb.SetBolt("a", func() Bolt {
		return &BoltFunc{Output: Fields{"what"}, Fn: func(tp *Tuple, c Collector) error {
			if tp.IsTick() {
				c.Emit(Values{"flushed"})
			} else {
				<-tp.Value("gate").(chan struct{})
			}
			return nil
		}}
	}, 1).Shuffle("spout").Tick(time.Hour)
	tb.SetBolt("b", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			mu.Lock()
			defer mu.Unlock()
			if !tp.IsTick() {
				gotFlush = true
				return nil
			}
			tickedOnce.Do(func() {
				flushBeforeTick = gotFlush
				close(ticked)
			})
			return nil
		}}
	}, 1).Shuffle("a").Tick(time.Hour)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	rt := h.rt
	a := rt.taskList("a")[0]
	inject := func(batch []*Tuple) {
		rt.pending.Add(int64(len(batch)))
		a.in <- batch
	}
	first, behind := make(chan struct{}), make(chan struct{})
	inject(gateTuple(first)) // a is held in this Execute while the round starts
	for len(a.in) != 0 {
		time.Sleep(50 * time.Microsecond)
	}
	round := make(chan struct{})
	go func() {
		rt.tickRound(nil, false, false)
		close(round)
	}()
	for len(a.in) != 1 { // a's tick is queued
		time.Sleep(50 * time.Microsecond)
	}
	inject(gateTuple(behind)) // the backlog behind the tick
	close(first)
	select {
	case <-ticked:
	case <-time.After(10 * time.Second):
		t.Fatal("the round never reached b")
	}
	close(behind)
	<-round
	mu.Lock()
	ok := flushBeforeTick
	mu.Unlock()
	if !ok {
		t.Fatal("b executed its tick of the round before it had what a emitted in its own")
	}
	h.Stop()
	h.Wait()
}
