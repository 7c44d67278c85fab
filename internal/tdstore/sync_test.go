package tdstore

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSyncScratchKeepsBurstsBounded drives a sync loop's scratch the way
// the loop does (the writers fill one queue buffer while the loop drains
// the other, and the two trade places at every drain): a burst's buffers
// and coalescing map serve the next burst of its size, no buffer past
// maxSpareOps is kept, and after quietDrains small drains in a row what
// the bursts grew is let go.
func TestSyncScratchKeepsBurstsBounded(t *testing.T) {
	var sc syncScratch
	var queue []syncOp // the writers' buffer
	drain := func(n int) {
		for i := 0; i < n; i++ {
			queue = append(queue, syncOp{kind: opPut, key: fmt.Sprintf("k%d", i%4000)})
		}
		batch := queue
		queue = sc.spare
		m := sc.coalescer(len(batch))
		if ops := coalesceOps(batch, m); len(ops) != min(n, 4000) {
			t.Fatalf("a drain of %d ops coalesced to %d, want %d", n, len(ops), min(n, 4000))
		}
		sc.done(batch, m)
	}
	burstClass := scratchClass(5000)
	drain(5000)
	drain(5000)
	if cap(queue) < 5000 || cap(sc.spare) < 5000 {
		t.Fatalf("after two bursts of 5000 the buffers hold %d and %d ops, want both kept", cap(queue), cap(sc.spare))
	}
	kept := reflect.ValueOf(sc.maps[burstClass]).Pointer()
	drain(4500)
	if kept == 0 || reflect.ValueOf(sc.maps[burstClass]).Pointer() != kept {
		t.Fatal("a burst did not reuse the coalescing map of its size class")
	}
	if len(sc.maps[burstClass]) != 0 {
		t.Fatalf("a kept coalescing map holds %d entries after its drain", len(sc.maps[burstClass]))
	}
	drain(maxSpareOps + 1)
	if sc.spare != nil {
		t.Fatalf("kept a queue buffer of %d ops, past maxSpareOps", cap(sc.spare))
	}
	for i := 0; i < quietDrains+2; i++ {
		drain(1)
	}
	if cap(queue) > maxQuietSpareOps || cap(sc.spare) > maxQuietSpareOps {
		t.Fatalf("after %d small drains the buffers hold %d and %d ops, want at most %d", quietDrains+2, cap(queue), cap(sc.spare), maxQuietSpareOps)
	}
	for c := 1; c < scratchClasses; c++ {
		if sc.maps[c] != nil {
			t.Fatalf("after the bursts stopped the coalescing map of class %d is still kept", c)
		}
	}
}
