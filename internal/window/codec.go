package window

import (
	"encoding/binary"
	"fmt"
	"math"
)

// counterMagic guards against decoding foreign bytes as a counter.
const counterMagic = 0xC7

// MarshalBinary encodes the counter state for storage in TDStore, where
// the pipeline's stateless bolts keep their windowed counts (§3.3).
func (c *Counter) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 2+4+8+8+1+8*len(c.ring))
	buf = append(buf, counterMagic, 1) // magic, version
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.w))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.base))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.total))
	if c.init {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, v := range c.ring {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// Encoded-counter layout offsets (see MarshalBinary): magic 0, version
// 1, w uint32 at 2, base uint64 at 6, total float64 at 14, init byte at
// 22, ring floats from 23. The fixed width for a given w is what makes
// the in-place ops below possible: an Add never changes the size.
const (
	encOffW    = 2
	encOffBase = 6
	encOffTot  = 14
	encOffInit = 22
	encOffRing = 23
)

// encWindow validates a marshaled counter and returns its window size.
// ok=false covers foreign bytes, truncation, bytes past the ring, an init
// byte other than 0 or 1 and — for a windowed counter — negative bases or
// sessions, which the slot arithmetic below cannot address. A lifetime sum
// (w = 0) takes any session. UnmarshalBinary accepts the same frames, so a
// frame is never read one way here and another by a round trip.
func encWindow(data []byte, session int64) (w int, ok bool) {
	if len(data) < encOffRing || data[0] != counterMagic || data[1] != 1 || data[encOffInit] > 1 {
		return 0, false
	}
	w = int(int32(binary.LittleEndian.Uint32(data[encOffW:])))
	if w < 0 || len(data)-encOffRing != 8*w {
		return 0, false
	}
	if w > 0 && (session < 0 || int64(binary.LittleEndian.Uint64(data[encOffBase:])) < 0) {
		return 0, false
	}
	return w, true
}

func encGetF64(data []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
}

func encPutF64(data []byte, off int, v float64) {
	binary.LittleEndian.PutUint64(data[off:], math.Float64bits(v))
}

// AddEncoded applies Counter.Add(session, delta) directly to a
// marshaled counter, mutating data in place, and returns the windowed
// sum as of session — byte-for-byte equivalent to Unmarshal → Add →
// Sum → Marshal with zero allocation. ok=false (data untouched) when
// data is not a well-formed counter encoding.
func AddEncoded(data []byte, session int64, delta float64) (sum float64, ok bool) {
	w, ok := encWindow(data, session)
	if !ok {
		return 0, false
	}
	if w <= 0 {
		total := encGetF64(data, encOffTot) + delta
		encPutF64(data, encOffTot, total)
		return total, true
	}
	base := int64(binary.LittleEndian.Uint64(data[encOffBase:]))
	if data[encOffInit] != 1 {
		base = session
		data[encOffInit] = 1
		binary.LittleEndian.PutUint64(data[encOffBase:], uint64(base))
	} else if session >= base {
		if newBase := session - int64(w) + 1; newBase > base {
			if steps := newBase - base; steps >= int64(w) {
				for i := 0; i < w; i++ {
					encPutF64(data, encOffRing+8*i, 0)
				}
			} else {
				for s := base; s < base+steps; s++ {
					encPutF64(data, encOffRing+8*int(s%int64(w)), 0)
				}
			}
			base = newBase
			binary.LittleEndian.PutUint64(data[encOffBase:], uint64(base))
		}
	}
	at := session
	if at < base {
		at = base
	}
	slot := encOffRing + 8*int(at%int64(w))
	encPutF64(data, slot, encGetF64(data, slot)+delta)
	return sumEncoded(data, w, base, session), true
}

// SumEncoded returns Counter.Sum(current) for a marshaled counter
// without decoding it. ok=false when data is not a counter encoding.
func SumEncoded(data []byte, current int64) (sum float64, ok bool) {
	w, ok := encWindow(data, current)
	if !ok {
		return 0, false
	}
	if w <= 0 {
		return encGetF64(data, encOffTot), true
	}
	if data[encOffInit] != 1 {
		return 0, true
	}
	base := int64(binary.LittleEndian.Uint64(data[encOffBase:]))
	return sumEncoded(data, w, base, current), true
}

func sumEncoded(data []byte, w int, base, current int64) float64 {
	var total float64
	lo := current - int64(w) + 1
	for s := base; s < base+int64(w); s++ {
		if s >= lo && s <= current {
			total += encGetF64(data, encOffRing+8*int(s%int64(w)))
		}
	}
	return total
}

// UnmarshalBinary restores a counter encoded by MarshalBinary. It accepts
// exactly the frames AddEncoded and SumEncoded do (FuzzCounterEncoded).
func (c *Counter) UnmarshalBinary(data []byte) error {
	w, ok := encWindow(data, 0)
	if !ok {
		return fmt.Errorf("window: bad counter encoding (%d bytes)", len(data))
	}
	c.w = w
	c.base = int64(binary.LittleEndian.Uint64(data[encOffBase:]))
	c.total = encGetF64(data, encOffTot)
	c.init = data[encOffInit] == 1
	c.ring = nil
	if w > 0 {
		c.ring = make([]float64, w)
		for i := range c.ring {
			c.ring[i] = encGetF64(data, encOffRing+8*i)
		}
	}
	return nil
}
