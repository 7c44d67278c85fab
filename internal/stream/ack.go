package stream

import (
	"time"
)

// This file implements Storm's at-least-once delivery machinery: anchored
// emission, the XOR-lineage acker task, and the ack/fail feedback path to
// spouts (§3.1, §3.3 of the paper's Storm substrate).
//
// Every anchored delivery is tagged with a random non-zero 64-bit id. The
// spout's anchoring message and every bolt ack XOR the ids they know about
// into a per-root accumulator: an id enters the accumulator exactly twice
// (once when its tuple is created, once when it is executed), so the
// accumulator returns to zero precisely when every tuple in the root's
// lineage tree has been executed. A random id colliding into a premature
// zero has probability 2^-64 per tuple, which Storm — and this engine —
// accepts.
//
// Acking is optional and off by default: with acking disabled no delivery
// is anchored, so none carries an id and no task sends the acker anything.

// DefaultAckTimeout is how long the acker waits for a root's lineage to
// complete before failing it back to the spout, unless overridden with
// TopologyBuilder.SetAckTimeout.
const DefaultAckTimeout = 30 * time.Second

// ackerFlushLen caps a task's local acker-update buffer; a full buffer is
// handed to the acker immediately instead of waiting for the next
// transport flush.
const ackerFlushLen = 256

// ackerQueueDepth bounds the acker's input channel, in batches. A full
// channel blocks the sending tasks.
const ackerQueueDepth = 1024

type ackerMsgKind uint8

const (
	// ackerInit anchors a new root: carries the spout task, the spout's
	// message id, and the XOR of the ids of the root's first-level tuples.
	ackerInit ackerMsgKind = iota
	// ackerAck folds an executed tuple's id and its children's ids into
	// the root's accumulator.
	ackerAck
	// ackerFail marks the root failed (a tuple in its tree was dropped
	// without execution).
	ackerFail
)

// ackerMsg is one update to a root's lineage state.
type ackerMsg struct {
	kind  ackerMsgKind
	root  uint64
	xor   uint64
	spout *task       // ackerInit only
	msgID interface{} // ackerInit only
}

// rootEntry is the acker's record of one outstanding spout message.
type rootEntry struct {
	xor      uint64
	spout    *task
	msgID    interface{}
	hasInit  bool
	failed   bool
	deadline time.Time
}

// acker is the per-topology lineage-tracking task. It owns the pending
// map exclusively; tasks talk to it only through the in channel, and it
// reports completions to spout tasks through their mailboxes.
type acker struct {
	rt      *runtime
	timeout time.Duration
	in      chan []ackerMsg
	stop    chan struct{}
	done    chan struct{}
	pending map[uint64]*rootEntry
}

func newAcker(rt *runtime, timeout time.Duration) *acker {
	if timeout <= 0 {
		timeout = DefaultAckTimeout
	}
	return &acker{
		rt:      rt,
		timeout: timeout,
		in:      make(chan []ackerMsg, ackerQueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		pending: make(map[uint64]*rootEntry),
	}
}

// run is the acker goroutine: it folds update batches into the pending
// map and periodically reaps roots that outlived the ack timeout.
func (a *acker) run() {
	defer close(a.done)
	reap := a.timeout / 4
	if reap < time.Millisecond {
		reap = time.Millisecond
	}
	if reap > time.Second {
		reap = time.Second
	}
	tick := time.NewTicker(reap)
	defer tick.Stop()
	for {
		select {
		case batch := <-a.in:
			a.process(batch)
		case <-tick.C:
			a.reapExpired()
		case <-a.stop:
			for {
				select {
				case batch := <-a.in:
					a.process(batch)
				default:
					return
				}
			}
		}
	}
}

// shutdown stops the acker after draining already-queued updates. Called
// once all task goroutines (the only senders) have exited.
func (a *acker) shutdown() {
	close(a.stop)
	<-a.done
}

func (a *acker) process(batch []ackerMsg) {
	for _, m := range batch {
		e := a.pending[m.root]
		if e == nil {
			// Acks can outrun the spout's init (they travel on different
			// tasks' flushes); a placeholder accumulates them until the
			// init arrives, and is reaped on timeout if it never does.
			e = &rootEntry{deadline: time.Now().Add(a.timeout)}
			a.pending[m.root] = e
		}
		switch m.kind {
		case ackerInit:
			e.hasInit = true
			e.spout = m.spout
			e.msgID = m.msgID
			e.xor ^= m.xor
		case ackerAck:
			e.xor ^= m.xor
		case ackerFail:
			e.failed = true
		}
		if e.hasInit && (e.failed || e.xor == 0) {
			delete(a.pending, m.root)
			a.resolve(e, e.failed)
		}
	}
}

// reapExpired fails every root whose deadline passed: its lineage is
// stuck (a straggler) or its init will never arrive (orphan placeholder).
func (a *acker) reapExpired() {
	now := time.Now()
	for root, e := range a.pending {
		if now.After(e.deadline) {
			delete(a.pending, root)
			a.resolve(e, true)
		}
	}
}

// resolve reports a completed root to its spout task's mailbox. Orphan
// placeholders have no spout to notify and are dropped silently.
func (a *acker) resolve(e *rootEntry, failed bool) {
	if !e.hasInit {
		return
	}
	if failed {
		a.rt.metrics.component(e.spout.component).failed.Add(1)
	}
	e.spout.pushAckResult(ackResult{msgID: e.msgID, failed: failed})
}

// ackResult is one resolved root, queued for the spout task to pick up
// between NextTuple calls.
type ackResult struct {
	msgID  interface{}
	failed bool
}

// pushAckResult appends to the task's mailbox; called by the acker
// goroutine, so it must never block on the task.
func (tk *task) pushAckResult(r ackResult) {
	tk.ackMu.Lock()
	tk.ackBox = append(tk.ackBox, r)
	tk.ackMu.Unlock()
}

// takeAckResults drains the task's mailbox into buf; called by the
// owning spout goroutine.
func (tk *task) takeAckResults(buf []ackResult) []ackResult {
	tk.ackMu.Lock()
	buf = append(buf, tk.ackBox...)
	tk.ackBox = tk.ackBox[:0]
	tk.ackMu.Unlock()
	return buf
}

// EmitAnchored implements SpoutCollector.
func (c *collector) EmitAnchored(msgID interface{}, values Values) {
	c.EmitAnchoredTo(DefaultStream, msgID, values)
}

// EmitAnchoredTo implements SpoutCollector. With acking disabled (or a
// spout that cannot receive Ack/Fail) it degrades to a plain EmitTo, so
// spouts can anchor unconditionally and let the topology decide.
func (c *collector) EmitAnchoredTo(stream string, msgID interface{}, values Values) {
	if !c.anchorOK {
		c.EmitTo(stream, values)
		return
	}
	root := c.newAckID()
	c.curRoot, c.curXor = root, 0
	c.emitTo(stream, values)
	c.curRoot = 0
	c.pushAckerMsg(ackerMsg{kind: ackerInit, root: root, xor: c.curXor, spout: c.task, msgID: msgID})
}

// newAckID draws a non-zero lineage id; zero is reserved to mean
// "unanchored" on tuples.
func (c *collector) newAckID() uint64 {
	for {
		if id := c.task.rng.Uint64(); id != 0 {
			return id
		}
	}
}

// pushAckerMsg queues one acker update locally; updates ride to the acker
// on the next transport flush (flushAll), or immediately when the local
// buffer fills — after the bolt's staged writes have landed, like every
// path on which acks leave.
func (c *collector) pushAckerMsg(m ackerMsg) {
	c.ackBuf = append(c.ackBuf, m)
	if len(c.ackBuf) >= ackerFlushLen {
		c.flushBolt()
		c.flushAcks()
	}
}

// flushAcks hands the buffered updates to the acker as one batch. The
// acker consumes the slice, so a fresh buffer starts on next use.
func (c *collector) flushAcks() {
	if len(c.ackBuf) == 0 {
		return
	}
	buf := c.ackBuf
	c.ackBuf = nil
	c.ak.in <- buf
}
