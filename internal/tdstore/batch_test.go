package tdstore

import (
	"fmt"
	"sync"
	"testing"
)

func TestBatchPutGetRoundTrip(t *testing.T) {
	_, cl := newTestCluster(t, Options{Instances: 16})
	var keys []string
	var vals [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("bk-%d", i))
		vals = append(vals, []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	// Mix present and absent keys in one read batch.
	probe := append(append([]string(nil), keys...), "missing-1", "missing-2")
	got, found, err := cl.BatchGet(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || string(got[i]) != string(vals[i]) {
			t.Fatalf("key %s = %q found=%v", keys[i], got[i], found[i])
		}
	}
	for i := len(keys); i < len(probe); i++ {
		if found[i] || got[i] != nil {
			t.Fatalf("absent key %s reported found=%v val=%q", probe[i], found[i], got[i])
		}
	}
}

// TestBatchPutKeepsBatchOrderWithinAnInstance: a batch whose keys
// interleave across instances is applied instance by instance, each
// instance's keys in batch order, so of two writes to one key in a batch
// the later wins.
func TestBatchPutKeepsBatchOrderWithinAnInstance(t *testing.T) {
	c, cl := newTestCluster(t, Options{Instances: 8})
	var keys []string
	var vals [][]byte
	want := make(map[string]string)
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			k, v := fmt.Sprintf("ok-%d", i), fmt.Sprintf("v-%d", i)
			if i%7 == 0 {
				v = fmt.Sprintf("v-%d-round-%d", i, round) // rewritten every round
			} else if round > 0 {
				continue
			}
			keys, vals = append(keys, k), append(vals, []byte(v))
			want[k] = v
		}
	}
	seen := make(map[InstanceID]bool)
	for _, k := range keys {
		seen[c.route.InstanceFor(k)] = true
	}
	if len(seen) < 4 {
		t.Fatalf("keys fall on %d instances; the batch does not interleave", len(seen))
	}
	if err := cl.BatchPut(keys, vals); err != nil {
		t.Fatal(err)
	}
	probe := make([]string, 0, len(want))
	for k := range want {
		probe = append(probe, k)
	}
	got, found, err := cl.BatchGet(probe)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		if !found[i] || string(got[i]) != want[k] {
			t.Fatalf("%s = %q found=%v, want %q", k, got[i], found[i], want[k])
		}
	}
}

func TestBatchPutLengthMismatch(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	if err := cl.BatchPut([]string{"a", "b"}, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("BatchPut accepted mismatched lengths")
	}
}

func TestBatchGetReportsMisses(t *testing.T) {
	_, cl := newTestCluster(t, Options{})
	if err := cl.Put("present", []byte("v")); err != nil {
		t.Fatal(err)
	}
	vals, found, err := cl.BatchGet([]string{"present", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || string(vals[0]) != "v" {
		t.Fatalf("present key = %q found=%v", vals[0], found[0])
	}
	if found[1] {
		t.Fatal("absent key reported found")
	}
}

// TestBatchConcurrent exercises the batch paths under -race: concurrent
// batch readers and writers over keys of every instance.
func TestBatchConcurrent(t *testing.T) {
	_, cl := newTestCluster(t, Options{Instances: 16})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]string, 40)
			vals := make([][]byte, 40)
			for i := range keys {
				keys[i] = fmt.Sprintf("cw-%d-%d", w, i)
				vals[i] = []byte{byte(i)}
			}
			for round := 0; round < 20; round++ {
				if err := cl.BatchPut(keys, vals); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := cl.BatchGet(keys); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
