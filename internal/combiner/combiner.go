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

// MergeFunc combines an existing buffered value with a new one.
type MergeFunc func(old, new float64) float64

// Sum merges by addition — the itemCount/pairCount case.
func Sum(old, new float64) float64 { return old + new }

// Combiner buffers keyed float64 updates and flushes merged values.
// It is not safe for concurrent use; each pipeline task owns one.
type Combiner struct {
	merge MergeFunc
	buf   map[string]float64
}

// New returns a combiner with the given merge function.
func New(merge MergeFunc) *Combiner {
	return &Combiner{merge: merge, buf: make(map[string]float64)}
}

// Add buffers one update for key.
func (c *Combiner) Add(key string, value float64) {
	if old, ok := c.buf[key]; ok {
		c.buf[key] = c.merge(old, value)
		return
	}
	c.buf[key] = value
}

// Len returns the number of distinct buffered keys.
func (c *Combiner) Len() int { return len(c.buf) }

// Flush hands every buffered (key, merged value) to emit and clears the
// buffer. The number of emit calls is the number of distinct keys, not
// the number of Adds — that difference is the §5.3 write reduction.
func (c *Combiner) Flush(emit func(key string, value float64)) int {
	n := len(c.buf)
	for k, v := range c.buf {
		emit(k, v)
	}
	clear(c.buf)
	return n
}
