// Package combiner implements the combiner technique of §5.3, TencentRec's
// answer to the hot item problem.
//
// A hot item generates a flood of statistic updates that all route to one
// worker and one store key. The combiner is "a map that buffers the coming
// tuples": updates with the same key are partially merged in memory
// (increment, addition or maximization) and only the merged value is
// flushed to the store "at the predefined intervals" — in the pipeline,
// on tick tuples. The hotter the key, the higher the combiner's merge
// ratio, which is why "in a temporal burst situation, the combiner's
// efficacy will be even improved".
package combiner

import "tencentrec/internal/keyhash"

// MergeFunc combines an existing buffered value with a new one.
type MergeFunc func(old, new float64) float64

// Sum merges by addition — the itemCount/pairCount case.
func Sum(old, new float64) float64 { return old + new }

// Combiner buffers keyed float64 updates and flushes merged values. A
// cell is a key in a session: deltas of different sessions never merge.
// Cells are found by the key's keyhash, which the caller carries, in an
// open-addressing table of cell numbers over a slab of cells that a flush
// empties and the next interval reuses, so a steady-state Add allocates
// nothing.
// It is not safe for concurrent use; each pipeline task owns one.
type Combiner struct {
	merge MergeFunc
	cells []cell
	// idx finds a cell by keyhash; it has at least twice the cells' slots.
	idx keyhash.Index
}

type cell struct {
	key     string
	h       uint64
	session int64
	value   float64
}

// New returns a combiner with the given merge function.
func New(merge MergeFunc) *Combiner {
	return &Combiner{merge: merge}
}

// Add buffers one update for key, in session 0.
func (c *Combiner) Add(key string, value float64) {
	c.AddHashed(key, keyhash.String(key), 0, value)
}

// AddHashed buffers one update for key, whose keyhash is h, in session.
// The combiner keeps key until the flush.
func (c *Combiner) AddHashed(key string, h uint64, session int64, value float64) {
	if 2*len(c.cells) >= c.idx.Len() {
		c.idx.Resize(2 * c.idx.Len())
		for n := range c.cells {
			c.idx.Add(c.cells[n].h, uint32(n))
		}
	}
	for i := c.idx.Home(h); c.idx.At(i) != 0; i = c.idx.Next(i) {
		if x := &c.cells[c.idx.At(i)-1]; x.h == h && x.session == session && x.key == key {
			x.value = c.merge(x.value, value)
			return
		}
	}
	c.idx.Add(h, uint32(len(c.cells)))
	c.cells = append(c.cells, cell{key: key, h: h, session: session, value: value})
}

// Len returns the number of distinct buffered cells.
func (c *Combiner) Len() int { return len(c.cells) }

// Flush hands every buffered (key, merged value) to emit, in the order the
// cells were first added, and clears the buffer. The number of emit calls
// is the number of distinct cells, not the number of Adds — that
// difference is the §5.3 write reduction.
func (c *Combiner) Flush(emit func(key string, value float64)) int {
	return c.FlushHashed(func(key string, _ uint64, _ int64, value float64) { emit(key, value) })
}

// FlushHashed is Flush, handing emit each cell's key, keyhash and session
// too.
func (c *Combiner) FlushHashed(emit func(key string, h uint64, session int64, value float64)) int {
	n := len(c.cells)
	for i := range c.cells {
		x := &c.cells[i]
		emit(x.key, x.h, x.session, x.value)
	}
	clear(c.cells) // drop key references; capacity stays
	c.cells = c.cells[:0]
	c.idx.Clear()
	return n
}
