package window

import (
	"testing"
	"testing/quick"
	"time"
)

func TestUnwindowedCounterIsLifetimeSum(t *testing.T) {
	c := NewCounter(0)
	c.Add(1, 2)
	c.Add(100, 3)
	c.Add(5, -1)
	if got := c.Sum(1000); got != 4 {
		t.Fatalf("Sum = %v, want 4", got)
	}
}

func TestWindowedSumWithinWindow(t *testing.T) {
	c := NewCounter(3)
	c.Add(10, 1)
	c.Add(11, 2)
	c.Add(12, 4)
	if got := c.Sum(12); got != 7 {
		t.Fatalf("Sum(12) = %v, want 7", got)
	}
}

func TestOldSessionsExpire(t *testing.T) {
	c := NewCounter(3)
	c.Add(10, 1)
	c.Add(11, 2)
	c.Add(12, 4)
	c.Add(13, 8) // session 10 falls out
	if got := c.Sum(13); got != 14 {
		t.Fatalf("Sum(13) = %v, want 14", got)
	}
	c.Add(20, 16) // everything else falls out
	if got := c.Sum(20); got != 16 {
		t.Fatalf("Sum(20) = %v, want 16", got)
	}
}

func TestSumAtLaterCurrentExcludesExpired(t *testing.T) {
	c := NewCounter(2)
	c.Add(5, 3)
	if got := c.Sum(5); got != 3 {
		t.Fatalf("Sum(5) = %v, want 3", got)
	}
	if got := c.Sum(6); got != 3 {
		t.Fatalf("Sum(6) = %v, want 3 (still in window)", got)
	}
	if got := c.Sum(7); got != 0 {
		t.Fatalf("Sum(7) = %v, want 0 (expired)", got)
	}
}

func TestLateEventsLandInOldestSession(t *testing.T) {
	c := NewCounter(3)
	c.Add(12, 1)
	c.Add(5, 2) // far in the past: folded into oldest retained session
	if got := c.Sum(12); got != 3 {
		t.Fatalf("Sum(12) = %v, want 3", got)
	}
}

func TestClockSessionOf(t *testing.T) {
	c := Clock{Session: time.Hour}
	t0 := time.Unix(0, 0)
	if s := c.SessionOf(t0); s != 0 {
		t.Fatalf("SessionOf(epoch) = %d", s)
	}
	if s := c.SessionOf(t0.Add(59 * time.Minute)); s != 0 {
		t.Fatalf("SessionOf(59m) = %d, want 0", s)
	}
	if s := c.SessionOf(t0.Add(61 * time.Minute)); s != 1 {
		t.Fatalf("SessionOf(61m) = %d, want 1", s)
	}
	zero := Clock{}
	if s := zero.SessionOf(t0.Add(time.Hour)); s != 0 {
		t.Fatalf("zero clock SessionOf = %d, want 0", s)
	}
}

// TestWindowEqualsBruteForceProperty checks the ring implementation
// against a brute-force per-session map.
func TestWindowEqualsBruteForceProperty(t *testing.T) {
	type ev struct {
		Step  uint8 // advances the current session by Step%4
		Delta int8
	}
	f := func(w uint8, evs []ev) bool {
		W := int(w%8) + 1
		c := NewCounter(W)
		perSession := make(map[int64]float64)
		cur := int64(100)
		for _, e := range evs {
			cur += int64(e.Step % 4)
			c.Add(cur, float64(e.Delta))
			// Brute force: fold too-old events like the ring does.
			s := cur
			perSession[s] += float64(e.Delta)
			want := brute(perSession, cur, W)
			if got := c.Sum(cur); !close(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func brute(per map[int64]float64, current int64, w int) float64 {
	var total float64
	for s, v := range per {
		if s > current-int64(w) && s <= current {
			total += v
		}
	}
	return total
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestCounterCodecRoundTripProperty(t *testing.T) {
	type ev struct {
		Step  uint8
		Delta int8
	}
	f := func(w uint8, evs []ev) bool {
		W := int(w % 6) // 0 = unwindowed
		c := NewCounter(W)
		cur := int64(50)
		for _, e := range evs {
			cur += int64(e.Step % 3)
			c.Add(cur, float64(e.Delta))
		}
		data, err := c.MarshalBinary()
		if err != nil {
			return false
		}
		var c2 Counter
		if err := c2.UnmarshalBinary(data); err != nil {
			return false
		}
		for s := cur; s < cur+8; s++ {
			if !close(c.Sum(s), c2.Sum(s)) {
				return false
			}
		}
		// The decoded counter must keep accumulating identically.
		c.Add(cur+1, 2.5)
		c2.Add(cur+1, 2.5)
		return close(c.Sum(cur+1), c2.Sum(cur+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterCodecRejectsGarbage(t *testing.T) {
	var c Counter
	if err := c.UnmarshalBinary([]byte("nonsense")); err == nil {
		t.Fatal("UnmarshalBinary accepted garbage")
	}
	if err := c.UnmarshalBinary(nil); err == nil {
		t.Fatal("UnmarshalBinary accepted nil")
	}
}
