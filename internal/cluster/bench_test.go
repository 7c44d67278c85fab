package cluster

import (
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"tencentrec/internal/stream"
)

// benchBatch builds a representative action batch: 4-field tuples
// (string, string, float64, int64) like the workload kinds emit.
func benchBatch(n int) []WireTuple {
	tuples := make([]WireTuple, n)
	for i := range tuples {
		tuples[i] = WireTuple{
			Root: uint64(i + 1), ID: uint64(i + 1000),
			Values: stream.Values{"u" + strconv.Itoa(i%50), "i" + strconv.Itoa(i%20), 2.0, int64(i)},
		}
	}
	return tuples
}

func BenchmarkWireEncodeBatch(b *testing.B) {
	tuples := benchBatch(stream.DefaultMaxBatch)
	buf := EncodeBatch(nil, "actions", "default", tuples)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = EncodeBatch(buf[:0], "actions", "default", tuples)
	}
}

func BenchmarkWireDecodeBatch(b *testing.B) {
	tuples := benchBatch(stream.DefaultMaxBatch)
	payload := EncodeBatch(nil, "actions", "default", tuples)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeBatch(payload, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// loopbackPair wires an egress to an ingress over real TCP on loopback,
// the ingress as worker 1 at a fixed address.
func loopbackPair(b *testing.B, onBatch func(string, string, []WireTuple)) (*egress, func()) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ig := newIngress(ln, "bench", 1, 1)
	ig.start(onBatch, nil)
	eg := newEgress("bench", 0, 1, []string{1: ln.Addr().String()})
	return eg, func() {
		eg.close(2 * time.Second)
		ig.close()
	}
}

// BenchmarkWireLoopback measures sustained batch throughput through the
// full transport path — encode, frame, TCP loopback, frame read, decode —
// the wire analog of the in-process BenchmarkEmitRoute edge. Compare
// ns/op here (per 64-tuple batch) against the in-process numbers in the
// snapshot to see the process-boundary tax.
func BenchmarkWireLoopback(b *testing.B) {
	var received atomic.Int64
	eg, closeAll := loopbackPair(b, func(_, _ string, tuples []WireTuple) {
		received.Add(int64(len(tuples)))
	})
	defer closeAll()

	tuples := benchBatch(stream.DefaultMaxBatch)
	payload := EncodeBatch(nil, "actions", "default", tuples)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eg.sendBatch(1, append([]byte(nil), payload...))
	}
	want := int64(b.N) * int64(len(tuples))
	for received.Load() < want {
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkWireRoundTripLatency measures one-way tuple latency: a
// single-tuple batch sent and awaited before the next — the unbatched
// worst case a remote edge adds to a tuple's critical path.
func BenchmarkWireRoundTripLatency(b *testing.B) {
	arrived := make(chan struct{}, 1)
	eg, closeAll := loopbackPair(b, func(_, _ string, tuples []WireTuple) {
		arrived <- struct{}{}
	})
	defer closeAll()

	payload := EncodeBatch(nil, "actions", "default", benchBatch(1))
	// Prime the connection so dial+handshake stay out of the loop.
	eg.sendBatch(1, append([]byte(nil), payload...))
	<-arrived
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eg.sendBatch(1, append([]byte(nil), payload...))
		<-arrived
	}
}
