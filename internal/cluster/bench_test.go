package cluster

import (
	"strconv"
	"testing"

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
