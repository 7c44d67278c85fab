package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tencentrec/internal/stream"
)

// The transport moves frames between worker processes: one egress sender
// goroutine per remote peer (a single TCP connection multiplexing every
// edge toward that peer, plus ack traffic), and an ingress acceptor
// dispatching inbound frames to the worker's proxy queues. The sender
// pipelines: frames are written back-to-back through a bufio.Writer and
// flushed only when its queue runs empty, the socket-level analog of the
// in-process transport's batch-threshold+linger discipline. There is no
// retransmit window — a frame lost to a dying peer is recovered by the
// acker timeout and spout replay, exactly like an in-process drop.

// egress owns one sender per remote peer, created lazily.
type egress struct {
	cluster string
	worker  int
	incarn  uint64
	addrs   []string // data address by worker id

	mu      sync.Mutex
	senders map[int]*sender
}

func newEgress(cluster string, worker int, incarn uint64, addrs []string) *egress {
	return &egress{
		cluster: cluster, worker: worker, incarn: incarn, addrs: addrs,
		senders: make(map[int]*sender),
	}
}

// sendBatch enqueues an encoded batch payload toward peer. Blocks when
// the peer's queue is full — transport backpressure that propagates into
// the local topology through the emitting proxy bolt.
func (e *egress) sendBatch(peer int, payload []byte) { e.to(peer).enqueue(payload) }

// sendAcks enqueues lineage updates toward the acker worker.
func (e *egress) sendAcks(peer int, updates []stream.AckUpdate) {
	e.to(peer).enqueue(EncodeAcks(nil, updates))
}

func (e *egress) to(peer int) *sender {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.senders[peer]
	if s == nil {
		s = newSender(e, peer)
		e.senders[peer] = s
	}
	return s
}

// close flushes every sender, waiting up to deadline per sender for
// undeliverable frames before dropping them (the acker replays).
func (e *egress) close(deadline time.Duration) {
	e.mu.Lock()
	senders := make([]*sender, 0, len(e.senders))
	for _, s := range e.senders {
		senders = append(senders, s)
	}
	e.mu.Unlock()
	for _, s := range senders {
		s.close(deadline)
	}
}

// sender ships frames to one peer over one connection, reconnecting on
// failure. A restarted peer inherits its predecessor's listener, so the
// address never changes.
type sender struct {
	e       *egress
	peer    int
	ch      chan []byte
	stopc   chan struct{}
	done    chan struct{}
	closing atomic.Bool

	// conn and bw are owned by the run goroutine exclusively.
	conn net.Conn
	bw   *bufio.Writer
}

// senderQueueDepth bounds queued egress frames per peer; a full queue
// blocks the emitting task (backpressure, not loss).
const senderQueueDepth = 256

func newSender(e *egress, peer int) *sender {
	s := &sender{
		e: e, peer: peer,
		ch:    make(chan []byte, senderQueueDepth),
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *sender) enqueue(payload []byte) {
	select {
	case s.ch <- payload:
	case <-s.done:
		s.dropped()
	}
}

// close stops the sender after giving its queue up to deadline to drain
// toward a live peer; whatever remains undeliverable is dropped (the
// acker replays it).
func (s *sender) close(deadline time.Duration) {
	s.closing.Store(true)
	dl := time.Now().Add(deadline)
	for time.Now().Before(dl) && len(s.ch) > 0 {
		time.Sleep(5 * time.Millisecond)
	}
	close(s.stopc)
	<-s.done
}

func (s *sender) run() {
	defer close(s.done)
	defer func() {
		if s.conn != nil {
			_ = s.bw.Flush()
			_ = s.conn.Close()
		}
	}()
	for {
		select {
		case payload := <-s.ch:
			s.write(payload)
			// Pipelining: flush only when the queue runs dry.
			if len(s.ch) == 0 && s.bw != nil {
				if err := s.bw.Flush(); err != nil {
					s.dropConn()
				}
			}
		case <-s.stopc:
			for {
				select {
				case payload := <-s.ch:
					s.write(payload)
				default:
					return
				}
			}
		}
	}
}

// write delivers one frame, reconnecting and retrying until it lands or
// the sender is closing with the peer unreachable.
func (s *sender) write(payload []byte) {
	for {
		if s.conn == nil {
			if !s.connect() {
				s.dropped()
				return // closing and unreachable: drop, acker replays
			}
		}
		if err := WriteFrame(s.bw, payload); err != nil {
			s.dropConn()
			continue // retry on a fresh connection
		}
		return
	}
}

// dropped logs a frame given up with the peer unreachable.
func (s *sender) dropped() {
	log.Printf("cluster worker %d: tx_dropped: a frame to worker %d, peer unreachable at close", s.e.worker, s.peer)
}

func (s *sender) dropConn() {
	if s.conn != nil {
		_ = s.conn.Close()
	}
	s.conn, s.bw = nil, nil
}

// connect dials the peer with backoff until it succeeds or the sender is
// closing (which allows one attempt). The handshake exchanges hellos both
// ways so either side rejects a version or cluster mismatch before any
// tuple crosses.
func (s *sender) connect() bool {
	backoff := 20 * time.Millisecond
	for attempt := 0; ; attempt++ {
		if s.closing.Load() && attempt > 0 {
			return false
		}
		conn, err := net.DialTimeout("tcp", s.e.addrs[s.peer], 2*time.Second)
		if err == nil {
			if err = s.handshake(conn); err == nil {
				s.conn, s.bw = conn, bufio.NewWriterSize(conn, 64<<10)
				return true
			}
			_ = conn.Close()
		}
		time.Sleep(backoff)
		backoff = min(backoff*2, 500*time.Millisecond)
	}
}

func (s *sender) handshake(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
	defer conn.SetDeadline(time.Time{})
	bw := bufio.NewWriter(conn)
	hello := EncodeHello(nil, Hello{Cluster: s.e.cluster, Worker: s.e.worker, Incarnation: s.e.incarn})
	if err := WriteFrame(bw, hello); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	payload, err := NewFrameReader(io.LimitReader(conn, 4<<10)).Next()
	if err != nil {
		return fmt.Errorf("cluster: handshake read: %w", err)
	}
	peer, err := DecodeHello(payload)
	if err != nil {
		return err
	}
	if peer.Cluster != s.e.cluster {
		return fmt.Errorf("cluster: peer cluster %q, want %q", peer.Cluster, s.e.cluster)
	}
	if peer.Worker != s.peer {
		return fmt.Errorf("cluster: dialed worker %d, reached %d", s.peer, peer.Worker)
	}
	return nil
}

// ingress accepts peer connections and dispatches their frames.
type ingress struct {
	ln      net.Listener
	cluster string
	worker  int
	incarn  uint64

	// ready gates frame dispatch until the worker's topology is running.
	ready chan struct{}
	// onBatch delivers one decoded edge batch; it may block (queue
	// backpressure propagates into TCP). onAcks delivers lineage updates
	// (acker worker only).
	onBatch func(src, streamID string, tuples []WireTuple)
	onAcks  func(updates []stream.AckUpdate)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	open  int
	quit  bool
}

// newIngress serves peer connections accepted on ln.
func newIngress(ln net.Listener, cluster string, worker int, incarn uint64) *ingress {
	ig := &ingress{
		ln: ln, cluster: cluster, worker: worker, incarn: incarn,
		ready: make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	go ig.accept()
	return ig
}

// start opens the dispatch gate once handlers are bound.
func (ig *ingress) start(onBatch func(string, string, []WireTuple), onAcks func([]stream.AckUpdate)) {
	ig.onBatch = onBatch
	ig.onAcks = onAcks
	close(ig.ready)
}

// openConns reports live inbound connections — the drain path waits for
// it to reach zero, which happens when every upstream worker has exited.
func (ig *ingress) openConns() int {
	ig.mu.Lock()
	defer ig.mu.Unlock()
	return ig.open
}

func (ig *ingress) close() {
	ig.mu.Lock()
	ig.quit = true
	conns := make([]net.Conn, 0, len(ig.conns))
	for c := range ig.conns {
		conns = append(conns, c)
	}
	ig.mu.Unlock()
	_ = ig.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (ig *ingress) accept() {
	for {
		conn, err := ig.ln.Accept()
		if err != nil {
			return
		}
		ig.mu.Lock()
		if ig.quit {
			ig.mu.Unlock()
			_ = conn.Close()
			return
		}
		ig.conns[conn] = struct{}{}
		ig.open++
		ig.mu.Unlock()
		go ig.serve(conn)
	}
}

func (ig *ingress) serve(conn net.Conn) {
	defer func() {
		ig.mu.Lock()
		delete(ig.conns, conn)
		ig.open--
		ig.mu.Unlock()
		_ = conn.Close()
	}()
	fr := NewFrameReader(conn)

	// Handshake: peer hello in, our hello out.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	payload, err := fr.Next()
	if err != nil {
		return
	}
	peer, err := DecodeHello(payload)
	if err == nil && peer.Cluster != ig.cluster {
		err = fmt.Errorf("peer cluster %q, want %q", peer.Cluster, ig.cluster)
	}
	if err != nil {
		ig.corrupt("hello", err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	hb := bufio.NewWriter(conn)
	if err := WriteFrame(hb, EncodeHello(nil, Hello{Cluster: ig.cluster, Worker: ig.worker, Incarnation: ig.incarn})); err != nil {
		return
	}
	if err := hb.Flush(); err != nil {
		return
	}

	<-ig.ready
	for {
		payload, err := fr.Next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				ig.corrupt("frame", err)
			}
			return
		}
		switch payload[0] {
		case FrameBatch:
			src, streamID, tuples, err := DecodeBatch(payload, nil)
			if err != nil {
				ig.corrupt("batch", err)
				return
			}
			ig.onBatch(src, streamID, tuples)
		case FrameAcks:
			updates, err := DecodeAcks(payload, nil)
			if err != nil {
				ig.corrupt("acks", err)
				return
			}
			if ig.onAcks != nil {
				ig.onAcks(updates)
			}
		default:
			ig.corrupt("frame", fmt.Errorf("unknown frame type %d", payload[0]))
			return
		}
	}
}

// corrupt logs an inbound connection dropped for a frame it cannot read.
func (ig *ingress) corrupt(what string, err error) {
	log.Printf("cluster worker %d: rx_corrupt: %s: %v", ig.worker, what, err)
}
