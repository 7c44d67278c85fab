package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tencentrec/internal/tdaccess"
)

// overflow is the disk-backed burst buffer (enabled with
// TopologyBuilder.SetOverflow), the engine's analog of a disk-buffer
// stage between ingestion and processing: when a spout emission's
// destination queue is full, the batch is appended to a segmented
// on-disk FIFO ring (reusing the tdaccess partition-log machinery)
// instead of blocking the spout, and a single drainer goroutine replays
// ring batches into the destination queues as they free up.
//
// The ring is burst absorption, not a durability log: it lives in a
// fresh temp directory per run and is removed on shutdown. Spilled
// tuples stay counted in the runtime's pending gauge (a spout's tuple
// enters it when it is emitted, long before the batch is diverted), so
// quiescence detection, rebalance drains and acking semantics are
// identical whether a tuple travelled through memory or disk. Lineage
// roots and ack ids survive the disk round-trip; sampled traces do not
// (a spilled tuple simply leaves its trace unfinished).
//
// Ordering: only spout collectors spill, and a collector that has
// spilled once routes every subsequent batch through the ring until the
// ring is fully drained (collector.spilling), so per-collector delivery
// order — the order per-user keys rely on — is preserved: the ring is
// FIFO, and the drainer's channel send for the last ring batch completes
// before the collector's next direct send can be attempted.
type overflow struct {
	rt  *runtime
	dir string // per-run temp dir, removed on close
	log *tdaccess.SpillLog

	readOffset atomic.Int64 // next ring offset to replay; advanced after delivery

	spilledBatches atomic.Int64
	drainedBatches atomic.Int64
	spilledTuples  atomic.Int64
	drainedTuples  atomic.Int64

	notify chan struct{} // wakes the drainer after an append
	stop   chan struct{}
	done   chan struct{}
}

// spillFrame is the gob payload of one ring record. The destination is
// identified by the stable edge id plus the task slot the batch was
// routed to; the tuples' Component/Stream/fields are implied by the
// edge. Roots and AckIDs carry lineage state (zeros when unanchored).
type spillFrame struct {
	Edge   int
	Slot   int32
	Roots  []uint64
	AckIDs []uint64
	Values [][]interface{}
}

func init() {
	// Concrete types that may appear in spilled tuple values. A value of
	// an unregistered type makes the gob encode fail, which flushDest
	// handles by falling back to the blocking send — correctness is never
	// gated on encodability. Run is not registered: only spout collectors
	// spill, and runs are emitted by bolts (the one spout that could
	// re-emit one, a cluster worker's ingress proxy, runs without a ring),
	// so a batch holding one would take that fallback.
	gob.Register(time.Time{})
	gob.Register([]byte(nil))
	gob.Register([]string(nil))
	gob.Register([]interface{}(nil))
	gob.Register(map[string]interface{}(nil))
}

// overflowTrimStride is how many drained batches pass between segment
// trims of the ring's consumed prefix.
const overflowTrimStride = 256

func openOverflow(rt *runtime, dir string) (*overflow, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: overflow dir: %w", err)
	}
	tmp, err := os.MkdirTemp(dir, "overflow-*")
	if err != nil {
		return nil, fmt.Errorf("stream: overflow dir: %w", err)
	}
	log, err := tdaccess.OpenSpillLog(tmp, 0)
	if err != nil {
		os.RemoveAll(tmp)
		return nil, fmt.Errorf("stream: overflow ring: %w", err)
	}
	return &overflow{
		rt:     rt,
		dir:    tmp,
		log:    log,
		notify: make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// backlog is the number of spilled batches not yet replayed.
func (o *overflow) backlog() int64 { return o.log.NextOffset() - o.readOffset.Load() }

// empty reports whether every spilled batch has been delivered to its
// destination queue (the drainer advances readOffset only after its
// send completes, so empty implies the ring's contents are all enqueued).
func (o *overflow) empty() bool { return o.backlog() == 0 }

// spill diverts one routed batch to the disk ring. It returns false —
// leaving the batch untouched, for the caller's blocking-send fallback —
// if the values cannot be encoded. On success the batch's tuples are
// released (the ring now owns the data; replay draws fresh tuples) and the
// drainer is woken.
//
// Record layout: 4-byte little-endian tuple count, then the gob frame.
// The redundant count lets a decode failure still repair the pending
// gauge instead of wedging quiescence.
func (o *overflow) spill(e *edge, slot int, buf []*Tuple) bool {
	fr := spillFrame{
		Edge:   e.id,
		Slot:   int32(slot),
		Roots:  make([]uint64, len(buf)),
		AckIDs: make([]uint64, len(buf)),
		Values: make([][]interface{}, len(buf)),
	}
	for i, t := range buf {
		fr.Roots[i] = t.root
		fr.AckIDs[i] = t.ackID
		fr.Values[i] = t.Values
	}
	var b bytes.Buffer
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(buf)))
	b.Write(cnt[:])
	if err := gob.NewEncoder(&b).Encode(&fr); err != nil {
		return false
	}
	if _, err := o.log.Append(b.Bytes()); err != nil {
		o.rt.onError("__overflow", fmt.Errorf("spill append: %w", err))
		return false
	}
	o.spilledBatches.Add(1)
	o.spilledTuples.Add(int64(len(buf)))
	for _, t := range buf {
		t.release()
	}
	select {
	case o.notify <- struct{}{}:
	default:
	}
	return true
}

// run is the drainer loop: replay ring batches in FIFO order, blocking
// on the destination queue when it is full (the drainer's patience is
// what converts a burst into disk residency instead of spout stalls).
// It exits via stopDrainer, which is only called once the ring is empty
// — spilled batches are pending tuples, and the runtime reaches the
// drainer shutdown only after waitQuiescent.
func (o *overflow) run() {
	defer close(o.done)
	sinceTrim := 0
	for {
		if o.backlog() == 0 {
			select {
			case <-o.stop:
				return
			case <-o.notify:
			}
			continue
		}
		off := o.readOffset.Load()
		if n, ok := o.replay(off); ok {
			o.drainedBatches.Add(1)
			o.drainedTuples.Add(int64(n))
		} else if n > 0 {
			// Undeliverable record: repair the pending gauge so the
			// topology can still quiesce, and count the loss.
			o.rt.pending.Add(-int64(n))
		}
		o.readOffset.Store(off + 1)
		if sinceTrim++; sinceTrim >= overflowTrimStride {
			if err := o.log.TrimTo(off + 1); err != nil {
				o.rt.onError("__overflow", err)
			}
			sinceTrim = 0
		}
	}
}

// replay reads, decodes and delivers the ring record at off. It returns
// the record's tuple count and whether delivery happened.
func (o *overflow) replay(off int64) (int, bool) {
	data, err := o.log.ReadAt(off)
	if err != nil || len(data) < 4 {
		o.rt.onError("__overflow", fmt.Errorf("replay read at %d: %w", off, err))
		return 0, false
	}
	n := int(binary.LittleEndian.Uint32(data[:4]))
	var fr spillFrame
	if err := gob.NewDecoder(bytes.NewReader(data[4:])).Decode(&fr); err != nil {
		o.rt.onError("__overflow", fmt.Errorf("replay decode at %d: %w", off, err))
		return n, false
	}
	e := o.rt.edgeList[fr.Edge]
	fields := o.rt.fields[e.src][e.stream]
	batch := make([]*Tuple, len(fr.Values))
	for i, vals := range fr.Values {
		t := getTuple(e.src, e.stream, Values(vals), fields)
		t.root = fr.Roots[i]
		t.ackID = fr.AckIDs[i]
		batch[i] = t
	}
	// The slot was routed under an assignment the ring outlived only if a
	// rebalance happened, and rebalances drain the ring first — but guard
	// the index anyway so a future invariant slip degrades to misrouting
	// within the component rather than a panic.
	a := e.dest.assign.Load()
	slot := int(fr.Slot)
	if slot >= len(a.tasks) {
		slot = slot % len(a.tasks)
	}
	a.tasks[slot].in <- batch
	return len(batch), true
}

// stopDrainer stops the replay loop. Call only when the ring is empty.
func (o *overflow) stopDrainer() {
	close(o.stop)
	<-o.done
}

// close releases the ring's disk space. Call after stopDrainer.
func (o *overflow) close() {
	if err := o.log.Close(); err != nil {
		o.rt.onError("__overflow", err)
	}
	os.RemoveAll(o.dir)
}
