// Package cluster is the stream engine's wire codec: a CRC-checked frame
// and a micro-batch of tuples for one (source component, stream) edge,
// in the statecodec byte conventions. Nothing in the system sends it
// between processes; the repo benchmark's probes measure what a
// process boundary would cost a batch (encode, decode, loopback TCP).
// The recommender's process-level recovery is LDB cold restart plus
// checkpoint replay: see DESIGN.md §18.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"tencentrec/internal/statecodec"
	"tencentrec/internal/stream"
)

// Frame layout, shared with the tdaccess plog: crc32(payload) | len | payload,
// both fixed32 little-endian, with payload[0] the frame type. The CRC is
// over the whole payload including the type byte, so a flipped type is a
// CRC error, not a misdispatch.
const (
	frameHeaderLen = 8
	// MaxFrame bounds a single frame's payload; a length prefix beyond it
	// is treated as corruption, bounding decoder allocation on torn or
	// hostile input.
	MaxFrame = 8 << 20
)

// FrameBatch is the type byte of a payload carrying one micro-batch of
// tuples for a single (source component, stream) edge.
const FrameBatch byte = 2

// Value type tags. int and int64 are distinct so a tuple round-trips with
// the exact dynamic types the in-process engine would deliver (fields
// grouping hashes int and int64 identically, but bolts type-assert).
const (
	valNil    byte = 0
	valString byte = 1
	valInt64  byte = 2
	valFloat  byte = 3
	valTrue   byte = 4
	valFalse  byte = 5
	valBytes  byte = 6
	valInt    byte = 7
	// valRun is a stream.Run: a row count, then key, str and num per row.
	// A keyed run crosses the wire as this one value of one tuple.
	valRun byte = 8
)

// ErrFrameCorrupt reports a frame whose header or checksum is invalid.
var ErrFrameCorrupt = errors.New("cluster: frame corrupt")

// WireTuple is one tuple crossing a process boundary: its payload plus
// a lineage pair (root, id), zero when unanchored.
type WireTuple struct {
	Root   uint64
	ID     uint64
	Values stream.Values
}

// WriteFrame writes crc|len|payload to w. The payload must already carry
// its type byte at payload[0].
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("cluster: empty frame payload")
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("cluster: frame payload %d exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// FrameReader reads frames from a stream, reusing one decode buffer: the
// returned payload is valid only until the next call to Next.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader wraps r. The reader owns its buffering; callers must not
// read from r directly afterwards.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Next reads one frame and returns its payload (type byte at [0]). A torn
// header or body returns io.ErrUnexpectedEOF; a bad length or checksum
// returns ErrFrameCorrupt. Never panics on malformed input.
func (fr *FrameReader) Next() ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(hdr[0:4])
	size := binary.LittleEndian.Uint32(hdr[4:8])
	if size == 0 || size > MaxFrame {
		return nil, fmt.Errorf("%w: payload length %d", ErrFrameCorrupt, size)
	}
	if cap(fr.buf) < int(size) {
		fr.buf = make([]byte, size)
	}
	body := fr.buf[:size]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrFrameCorrupt)
	}
	return body, nil
}

// EncodeBatch appends a batch payload for one (src, stream) edge to buf.
func EncodeBatch(buf []byte, src, streamID string, tuples []WireTuple) []byte {
	buf = append(buf, FrameBatch)
	buf = statecodec.AppendString(buf, src)
	buf = statecodec.AppendString(buf, streamID)
	buf = binary.AppendUvarint(buf, uint64(len(tuples)))
	for i := range tuples {
		t := &tuples[i]
		buf = binary.LittleEndian.AppendUint64(buf, t.Root)
		buf = binary.LittleEndian.AppendUint64(buf, t.ID)
		buf = binary.AppendUvarint(buf, uint64(len(t.Values)))
		for _, v := range t.Values {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

// DecodeBatch parses a batch payload. Tuples are appended to dst (may be
// nil); the returned slice aliases dst's backing array when capacity
// allows. Decoded strings and byte slices are fresh allocations, safe to
// retain beyond the frame buffer's reuse.
func DecodeBatch(payload []byte, dst []WireTuple) (src, streamID string, tuples []WireTuple, err error) {
	if len(payload) < 1 || payload[0] != FrameBatch {
		return "", "", nil, fmt.Errorf("%w: not a batch frame", ErrFrameCorrupt)
	}
	b := payload[1:]
	if src, b, err = statecodec.ReadString(b, "batch src"); err != nil {
		return "", "", nil, err
	}
	if streamID, b, err = statecodec.ReadString(b, "batch stream"); err != nil {
		return "", "", nil, err
	}
	count, b, err := statecodec.ReadCount(b, "batch tuples")
	if err != nil {
		return "", "", nil, err
	}
	tuples = dst
	for i := 0; i < count; i++ {
		var t WireTuple
		if len(b) < 16 {
			return "", "", nil, fmt.Errorf("%w: tuple lineage truncated", ErrFrameCorrupt)
		}
		t.Root = binary.LittleEndian.Uint64(b)
		t.ID = binary.LittleEndian.Uint64(b[8:])
		b = b[16:]
		nvals, nb, err := statecodec.ReadCount(b, "tuple values")
		if err != nil {
			return "", "", nil, err
		}
		b = nb
		if nvals > 0 {
			t.Values = make(stream.Values, 0, nvals)
			for j := 0; j < nvals; j++ {
				var v interface{}
				if v, b, err = readValue(b); err != nil {
					return "", "", nil, err
				}
				t.Values = append(t.Values, v)
			}
		}
		tuples = append(tuples, t)
	}
	if len(b) != 0 {
		return "", "", nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrFrameCorrupt, len(b))
	}
	return src, streamID, tuples, nil
}

// appendValue encodes one tuple value. The scalar types the engine's
// grouping hash knows (tuple.go hashValue), and a run of rows keyed by
// them (stream.Run), are the types the wire knows; anything else is
// rejected at send time so the error surfaces at the component that
// emitted it, not at a remote decoder.
func appendValue(buf []byte, v interface{}) []byte {
	switch x := v.(type) {
	case nil:
		return append(buf, valNil)
	case string:
		return statecodec.AppendString(append(buf, valString), x)
	case int:
		return binary.AppendVarint(append(buf, valInt), int64(x))
	case int64:
		return binary.AppendVarint(append(buf, valInt64), x)
	case float64:
		return statecodec.AppendFloat(append(buf, valFloat), x)
	case bool:
		if x {
			return append(buf, valTrue)
		}
		return append(buf, valFalse)
	case []byte:
		buf = append(buf, valBytes)
		buf = binary.AppendUvarint(buf, uint64(len(x)))
		return append(buf, x...)
	case stream.Run:
		buf = binary.AppendUvarint(append(buf, valRun), uint64(len(x)))
		for i := range x {
			buf = statecodec.AppendString(buf, x[i].Key)
			buf = statecodec.AppendString(buf, x[i].Str)
			buf = statecodec.AppendFloat(buf, x[i].Num)
		}
		return buf
	default:
		panic(fmt.Sprintf("cluster: value type %T cannot cross a process boundary "+
			"(wire types: nil, string, int, int64, float64, bool, []byte, stream.Run)", v))
	}
}

func readValue(b []byte) (interface{}, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: value tag truncated", ErrFrameCorrupt)
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case valNil:
		return nil, b, nil
	case valString:
		s, rest, err := statecodec.ReadString(b, "tuple value")
		return s, rest, err
	case valInt, valInt64:
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: varint value", ErrFrameCorrupt)
		}
		if tag == valInt {
			if v > math.MaxInt || v < math.MinInt {
				return nil, nil, fmt.Errorf("%w: int value overflows", ErrFrameCorrupt)
			}
			return int(v), b[n:], nil
		}
		return v, b[n:], nil
	case valFloat:
		f, rest, err := statecodec.ReadFloat(b, "tuple value")
		return f, rest, err
	case valTrue:
		return true, b, nil
	case valFalse:
		return false, b, nil
	case valBytes:
		n, sz := binary.Uvarint(b)
		if sz <= 0 || n > uint64(len(b)-sz) {
			return nil, nil, fmt.Errorf("%w: bytes value length", ErrFrameCorrupt)
		}
		out := make([]byte, n)
		copy(out, b[sz:sz+int(n)])
		return out, b[sz+int(n):], nil
	case valRun:
		n, b, err := statecodec.ReadCount(b, "run rows")
		if err != nil {
			return nil, nil, err
		}
		// A row is two length prefixes and a float at least: the count is
		// checked against that before it sizes an allocation.
		if n > len(b)/10 {
			return nil, nil, fmt.Errorf("%w: run of %d rows in %d bytes", ErrFrameCorrupt, n, len(b))
		}
		run := make(stream.Run, n)
		for i := range run {
			row := &run[i]
			if row.Key, b, err = statecodec.ReadString(b, "run row key"); err != nil {
				return nil, nil, err
			}
			if row.Str, b, err = statecodec.ReadString(b, "run row str"); err != nil {
				return nil, nil, err
			}
			if row.Num, b, err = statecodec.ReadFloat(b, "run row num"); err != nil {
				return nil, nil, err
			}
		}
		return run, b, nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown value tag %#x", ErrFrameCorrupt, tag)
	}
}
