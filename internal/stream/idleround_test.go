package stream

import (
	"sync/atomic"
	"testing"
	"time"
)

// feedSpout emits what the test feeds it and idles otherwise.
type feedSpout struct {
	feed <-chan int
	c    SpoutCollector
}

func (s *feedSpout) Open(_ TopologyContext, c SpoutCollector) error { s.c = c; return nil }
func (s *feedSpout) Close()                                         {}
func (s *feedSpout) NextTuple() bool {
	select {
	case n := <-s.feed:
		s.c.Emit(Values{n})
	default:
		time.Sleep(100 * time.Microsecond)
	}
	return true
}
func (s *feedSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// fedTopology is a feedSpout into tickLogBolt a, and into b when its tick is
// set, registered a then b, two tasks each.
func fedTopology(t *testing.T, log *tickLog, feed <-chan int, aTick, bTick time.Duration) *RunningTopology {
	t.Helper()
	tb := NewTopologyBuilder("fed")
	tb.SetSpout("spout", func() Spout { return &feedSpout{feed: feed} }, 1)
	tb.SetBolt("a", func() Bolt { return &tickLogBolt{log: log, comp: "a"} }, 2).On("spout", DefaultStream, byFields("n")).Tick(aTick)
	if bTick > 0 {
		tb.SetBolt("b", func() Bolt { return &tickLogBolt{log: log, comp: "b"} }, 2).On("spout", DefaultStream, byFields("n")).Tick(bTick)
	}
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo.Submit()
}

func (h *RunningTopology) rounds(cause tickCause) int64 { return h.rt.metrics.tickRounds[cause].Load() }

// TestTickRoundFollowsIdlePipeline: the period is a ceiling. One tuple into
// an idle topology whose bolt ticks every 400 ms is followed by that bolt's
// tick as soon as the tuple has been executed, in a round counted as idle.
func TestTickRoundFollowsIdlePipeline(t *testing.T) {
	log := &tickLog{}
	feed := make(chan int, 1)
	h := fedTopology(t, log, feed, 400*time.Millisecond, 0)
	time.Sleep(50 * time.Millisecond) // past the bolt's sixteenth, 25 ms
	sent := time.Now()
	feed <- 1
	log.waitTicks(t, "a", 2)
	if took := time.Since(sent); took > 100*time.Millisecond {
		t.Fatalf("the tick came %v after the tuple; the period is 400ms and the pipeline was idle", took)
	}
	if idle, period := h.rounds(tickIdle), h.rounds(tickPeriod); idle != 1 || period != 0 {
		t.Fatalf("%d idle and %d period rounds, want 1 and 0", idle, period)
	}
	h.Stop()
	h.Wait()
}

// backlogSpout emits n tuples as fast as they are taken, then idles.
type backlogSpout struct {
	n       int64
	emitted *atomic.Int64
	c       SpoutCollector
}

func (s *backlogSpout) Open(_ TopologyContext, c SpoutCollector) error { s.c = c; return nil }
func (s *backlogSpout) Close()                                         {}
func (s *backlogSpout) NextTuple() bool {
	if s.emitted.Load() < s.n {
		s.c.Emit(Values{s.emitted.Add(1)})
	} else {
		time.Sleep(time.Millisecond)
	}
	return true
}
func (s *backlogSpout) DeclareOutputFields() map[string]Fields {
	return map[string]Fields{DefaultStream: {"n"}}
}

// TestTickRoundBacklogKeepsThePeriod: two seconds of 200 µs tuples, all
// queued before the measured second starts, keep the in-flight count above
// zero whether or not the spout is scheduled again, so no idle round runs
// and the rounds come at the period: ten a second, give or take one.
func TestTickRoundBacklogKeepsThePeriod(t *testing.T) {
	const backlog = 10000
	var emitted atomic.Int64
	var draining atomic.Bool
	tb := NewTopologyBuilder("backlog")
	// A batch holds at least one tuple, so the spout never waits for room.
	tb.SetQueueDepth(backlog)
	tb.SetSpout("spout", func() Spout { return &backlogSpout{n: backlog, emitted: &emitted} }, 1)
	tb.SetBolt("a", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() && !draining.Load() {
				time.Sleep(200 * time.Microsecond)
			}
			return nil
		}}
	}, 1).Shuffle("spout").Tick(100 * time.Millisecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	for emitted.Load() < backlog {
		time.Sleep(time.Millisecond) // the backlog has built
	}
	idle0, period0 := h.rounds(tickIdle), h.rounds(tickPeriod)
	time.Sleep(time.Second)
	idle, period := h.rounds(tickIdle)-idle0, h.rounds(tickPeriod)-period0
	draining.Store(true) // what is left of the backlog need not take its second
	h.Stop()
	h.Wait()
	if idle != 0 {
		t.Errorf("%d idle rounds behind a backlog, want none", idle)
	}
	if period < 9 || period > 11 {
		t.Errorf("%d period rounds in one second of 100ms ticks, want 10±1", period)
	}
}

// TestTickRoundIdleTopologyKeepsItsPeriod: what a flush emits is not data
// entering the topology, so no round feeds the next. After the one idle
// round that follows a tuple, bolt a (which emits to b in every tick) and b
// tick at their 100 ms period and no faster.
func TestTickRoundIdleTopologyKeepsItsPeriod(t *testing.T) {
	feed := make(chan int, 1)
	var aTicks, bGot atomic.Int64
	tb := NewTopologyBuilder("idle-period")
	tb.SetSpout("spout", func() Spout { return &feedSpout{feed: feed} }, 1)
	tb.SetBolt("a", func() Bolt {
		return &BoltFunc{Output: Fields{"what"}, Fn: func(tp *Tuple, c Collector) error {
			if tp.IsTick() {
				aTicks.Add(1)
				c.Emit(Values{"flushed"})
			}
			return nil
		}}
	}, 1).Shuffle("spout").Tick(100 * time.Millisecond)
	tb.SetBolt("b", func() Bolt {
		return &BoltFunc{Fn: func(tp *Tuple, _ Collector) error {
			if !tp.IsTick() {
				bGot.Add(1)
			}
			return nil
		}}
	}, 1).Shuffle("a").Tick(100 * time.Millisecond)
	topo, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	h := topo.Submit()
	time.Sleep(20 * time.Millisecond)
	feed <- 1
	deadline := time.Now().Add(10 * time.Second)
	for h.rounds(tickIdle) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no idle round followed the tuple")
		}
		time.Sleep(200 * time.Microsecond)
	}
	ticks0, got0 := aTicks.Load(), bGot.Load()
	time.Sleep(500 * time.Millisecond)
	ticks, got := aTicks.Load()-ticks0, bGot.Load()-got0
	idle := h.rounds(tickIdle)
	h.Stop()
	h.Wait()
	if idle != 1 {
		t.Errorf("%d idle rounds, want the one that followed the tuple: a round's own emissions started another", idle)
	}
	if ticks < 3 || ticks > 6 {
		t.Errorf("a ticked %d times in 500ms idle, want its 100ms period (5, at most 6)", ticks)
	}
	if got < ticks-1 {
		t.Errorf("b received %d of the %d flushes a emitted", got, ticks)
	}
}

// TestTickRoundIdleTicksOnlyTheDue: an idle round ticks a bolt only when a
// sixteenth of that bolt's own period has passed since its last tick. With a
// at 800 ms (50 ms) and b at 6.4 s (400 ms), a tuple at 100 ms brings a tick
// to a alone and one at 500 ms to both, a first: Topology.order holds in an
// idle round as in any other.
func TestTickRoundIdleTicksOnlyTheDue(t *testing.T) {
	log := &tickLog{}
	feed := make(chan int, 1)
	start := time.Now()
	h := fedTopology(t, log, feed, 800*time.Millisecond, 6400*time.Millisecond)
	time.Sleep(time.Until(start.Add(100 * time.Millisecond)))
	feed <- 1
	log.waitTicks(t, "a", 2)
	time.Sleep(20 * time.Millisecond) // b's ticks, had the round sent any
	if n := log.ticksOf("b"); n != 0 {
		t.Fatalf("b executed %d ticks %v after the start; its sixteenth is 400ms", n, time.Since(start))
	}
	time.Sleep(time.Until(start.Add(500 * time.Millisecond)))
	feed <- 2
	log.waitTicks(t, "b", 2)
	if took := time.Since(start); took > 750*time.Millisecond {
		t.Fatalf("b's ticks came %v after the start: a's period had run out, the round may not have been idle", took)
	}
	if idle, period := h.rounds(tickIdle), h.rounds(tickPeriod); idle != 2 || period != 0 {
		t.Fatalf("%d idle and %d period rounds, want 2 and 0", idle, period)
	}
	h.Stop()
	h.Wait()
	both := 0
	for _, r := range log.rounds() {
		if r.bStartedTooSoon {
			t.Fatalf("a task of b began its tick at %d, before a's last tick of the round ended at %d", r.bStart, r.aEnd)
		}
		if r.aTicks == 2 && r.bTicks == 2 {
			both++
		}
	}
	if both != 2 { // the second idle round and the shutdown cascade
		t.Fatalf("%d rounds ticked both bolts, want the second idle round and the shutdown cascade", both)
	}
	if a := log.ticksOf("a"); a != 6 {
		t.Fatalf("a executed %d ticks, want 2 tasks × (2 idle rounds + shutdown)", a)
	}
}
