// Package window implements the per-session sliding-window counters of
// TencentRec's real-time filtering mechanisms (§4.3).
//
// The paper splits the time window into sessions and considers only the W
// most recent sessions: itemCount and pairCount become per-session counts
// that are summed over the window (Eq. 10), each updated incrementally.
// Counter holds one such windowed value; Clock maps wall time to session
// indices so "both the time interval of the overall time window and the
// small time session can be specified".
package window

import "time"

// Clock converts time to session indices for a given session duration.
type Clock struct {
	// Session is the duration of one session (the window's sliding step).
	Session time.Duration
}

// SessionOf returns the session index containing t. Every time before the
// Unix epoch falls in session 0: a windowed counter addresses its ring by
// session, so an index is never negative.
func (c Clock) SessionOf(t time.Time) int64 {
	if c.Session <= 0 {
		return 0
	}
	return max(t.UnixNano()/int64(c.Session), 0)
}

// Counter is a float64 accumulator windowed over the last W sessions.
// A W of 0 or less disables windowing: the counter is a plain lifetime sum.
// Counter is not safe for concurrent use; in the pipeline each counter is
// owned by a single task via fields grouping.
type Counter struct {
	w    int
	ring []float64
	// base is the session index stored at slot 0; sessions
	// [base, base+w) map onto the ring cyclically.
	base  int64
	total float64 // used only when w <= 0
	init  bool
}

// NewCounter returns a counter summing the most recent w sessions.
// Any w <= 0 (including negative "explicitly unwindowed" markers)
// yields a lifetime-sum counter.
func NewCounter(w int) *Counter {
	if w < 0 {
		w = 0
	}
	c := &Counter{w: w}
	if w > 0 {
		c.ring = make([]float64, w)
	}
	return c
}

// advance slides the window forward so that session fits in it,
// zeroing slots that fall out of range.
func (c *Counter) advance(session int64) {
	if !c.init {
		c.base = session
		c.init = true
		return
	}
	if session < c.base {
		return // late event: lands in the oldest retained session if any
	}
	newBase := session - int64(c.w) + 1
	if newBase <= c.base {
		return
	}
	steps := newBase - c.base
	if steps >= int64(c.w) {
		for i := range c.ring {
			c.ring[i] = 0
		}
	} else {
		for s := c.base; s < c.base+steps; s++ {
			c.ring[s%int64(c.w)] = 0
		}
	}
	c.base = newBase
}

// Add accumulates delta into the given session. Events older than the
// window are added to the oldest retained session (they are about to
// expire anyway); events newer than the window slide it forward.
func (c *Counter) Add(session int64, delta float64) {
	if c.w <= 0 {
		c.total += delta
		return
	}
	c.advance(session)
	if session < c.base {
		session = c.base
	}
	c.ring[session%int64(c.w)] += delta
}

// Sum returns the windowed total as of the given current session:
// the sum over sessions (current-W, current].
func (c *Counter) Sum(current int64) float64 {
	if c.w <= 0 {
		return c.total
	}
	if !c.init {
		return 0
	}
	var total float64
	lo := current - int64(c.w) + 1
	for s := c.base; s < c.base+int64(c.w); s++ {
		if s >= lo && s <= current {
			total += c.ring[s%int64(c.w)]
		}
	}
	return total
}
