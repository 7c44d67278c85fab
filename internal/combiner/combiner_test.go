package combiner

import (
	"fmt"
	"testing"
	"testing/quick"

	"tencentrec/internal/keyhash"
)

func TestSumMerge(t *testing.T) {
	c := New(Sum)
	c.Add("item:hot", 1)
	c.Add("item:hot", 2)
	c.Add("item:cold", 5)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	got := make(map[string]float64)
	n := c.Flush(func(k string, v float64) { got[k] = v })
	if n != 2 || got["item:hot"] != 3 || got["item:cold"] != 5 {
		t.Fatalf("Flush = %d %v", n, got)
	}
	if c.Len() != 0 {
		t.Fatal("buffer not cleared after flush")
	}
}

// TestMaxMerge: the combiner merges with the function it is given, here
// the max-weight rating's maximization.
func TestMaxMerge(t *testing.T) {
	c := New(func(old, new float64) float64 { return max(old, new) })
	c.Add("rating", 1)
	c.Add("rating", 3)
	c.Add("rating", 2)
	var got float64
	c.Flush(func(_ string, v float64) { got = v })
	if got != 3 {
		t.Fatalf("max merge = %v, want 3", got)
	}
}

// TestCountMerge: a key's first Add is stored as given and only later Adds
// go through the merge function, here one that ignores the value.
func TestCountMerge(t *testing.T) {
	c := New(func(old, _ float64) float64 { return old + 1 })
	for i := 0; i < 5; i++ {
		c.Add("k", 99)
	}
	var got float64
	c.Flush(func(_ string, v float64) { got = v })
	if got != 99+4 {
		t.Fatalf("count merge = %v, want 103", got)
	}
}

func TestHotKeyReductionGrowsWithSkew(t *testing.T) {
	// The §5.3 claim: the hotter the traffic, the better the merge
	// ratio. All updates on one key collapse to a single flush.
	c := New(Sum)
	for i := 0; i < 1000; i++ {
		c.Add("hot-news", 1)
	}
	writes := c.Flush(func(string, float64) {})
	if writes != 1 {
		t.Fatalf("1000 hot updates flushed as %d writes, want 1", writes)
	}
}

func TestFlushEmptyBuffer(t *testing.T) {
	c := New(Sum)
	if n := c.Flush(func(string, float64) { t.Fatal("emit on empty flush") }); n != 0 {
		t.Fatalf("empty flush = %d", n)
	}
}

func TestSumEqualsUnbufferedProperty(t *testing.T) {
	// Flushed sums must equal the sums of direct accumulation, whatever
	// the interleaving of keys and flushes.
	type op struct {
		Key   uint8
		Val   int8
		Flush bool
	}
	f := func(ops []op) bool {
		c := New(Sum)
		direct := make(map[string]float64)
		flushed := make(map[string]float64)
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%8)
			c.Add(k, float64(o.Val))
			direct[k] += float64(o.Val)
			if o.Flush {
				c.Flush(func(key string, v float64) { flushed[key] += v })
			}
		}
		c.Flush(func(key string, v float64) { flushed[key] += v })
		if len(direct) != len(flushed) {
			return false
		}
		for k, v := range direct {
			d := flushed[k] - v
			if d > 1e-9 || d < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAddHashedAllocatesNothing is the zero-alloc gate of the combiner's
// tuple path: once an interval has grown the slab and its index, adding
// by keyhash, across keys and sessions, and flushing allocate nothing.
func TestAddHashedAllocatesNothing(t *testing.T) {
	keys, hs := make([]string, 256), make([]uint64, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("ic:item-%d", i)
		hs[i] = keyhash.String(keys[i])
	}
	c := New(Sum)
	interval := func() {
		for i := range keys {
			c.AddHashed(keys[i], hs[i], int64(i%2), 1)
			c.AddHashed(keys[i], hs[i], int64(i%2), 1)
		}
		c.FlushHashed(func(string, uint64, int64, float64) {})
	}
	interval()
	if allocs := testing.AllocsPerRun(100, interval); allocs != 0 {
		t.Fatalf("an interval of 512 adds and a flush: %v allocs, want 0", allocs)
	}
}

// TestSessionsNeverMerge: one key's deltas of two sessions are two cells,
// flushed with their sessions, in the order they were first added.
func TestSessionsNeverMerge(t *testing.T) {
	c := New(Sum)
	h := keyhash.String("ic:a")
	c.AddHashed("ic:a", h, 2, 1)
	c.AddHashed("ic:a", h, 1, 5)
	c.AddHashed("ic:a", h, 2, 3)
	var got []string
	c.FlushHashed(func(k string, kh uint64, s int64, v float64) {
		if kh != h {
			t.Fatalf("flushed hash %#x, added %#x", kh, h)
		}
		got = append(got, fmt.Sprintf("%s@%d=%v", k, s, v))
	})
	if fmt.Sprint(got) != "[ic:a@2=4 ic:a@1=5]" {
		t.Fatalf("flushed %v", got)
	}
}
