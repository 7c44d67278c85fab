package engine

// White-box tests of the striped MDB engine: key spread over the lock
// stripes. The cross-engine behavioural contract lives in
// conformance_test.go.

import (
	"fmt"
	"testing"
)

func TestStripedShardDistribution(t *testing.T) {
	m := NewMemory()
	defer m.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		if err := m.Put(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := range m.shards {
		sz := len(m.shards[i].data)
		if sz == 0 {
			t.Errorf("shard %d holds no keys — striping is not spreading load", i)
		}
		// FNV-1a over distinct keys should land within a few x of the
		// mean; a shard holding 3x its share means selection is broken.
		if sz > 3*n/memShardCount {
			t.Errorf("shard %d holds %d keys, > 3x the fair share %d", i, sz, n/memShardCount)
		}
		total += sz
	}
	if total != n {
		t.Fatalf("shards hold %d keys in total, want %d", total, n)
	}
	got, err := m.Len()
	if err != nil || got != n {
		t.Fatalf("Len = %d, %v; want %d", got, err, n)
	}
}

func TestStripedShardSelectionDeterministic(t *testing.T) {
	for _, key := range []string{"", "a", "user:42", "pair:i1:i2"} {
		if a, b := shardIndex(key), shardIndex(key); a != b {
			t.Fatalf("shardIndex(%q) unstable: %d vs %d", key, a, b)
		}
		if shardIndex(key) >= memShardCount {
			t.Fatalf("shardIndex(%q) = %d out of range", key, shardIndex(key))
		}
	}
}
