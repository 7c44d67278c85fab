// Package statecodec defines the serialized forms of every status-data
// type the pipeline stores in TDStore: user behavior histories, scored
// item lists, content profiles and float scalars.
//
// The paper's status store moves billions of values per day (§5), so the
// wire format matters: JSON encoding of a history or a similar-items
// list costs an order of magnitude more CPU than a length-prefixed
// binary layout. This package owns that versioned binary format: the
// Encode/Decode pairs for whole values (delta.go holds the edits that
// patch one entry of an encoded value in place).
//
// Binary layout. Every binary value starts with a three-byte header:
//
//	[0] tagBinary (0x01);
//	[1] a type byte ('H' history, 'L' list, 'P' profile; 'A' is the
//	    action record on the TDAccess log, see wirebytes.go) guarding
//	    against decoding a value under the wrong key prefix;
//	[2] the type's format version: 2 for histories, 1 for the others.
//
// A history entry is uvarint(len) | item | rating f64 | ts i64. Version
// 1 entries also carried an 8-byte session after the timestamp; the
// session is a function of the timestamp under the application's window
// clock, so version 2 drops it. A reader reads only the version its type
// is written in: a store written under an older format is rebuilt from
// the action log, not read.
//
// The payload uses uvarint-prefixed strings, uvarint counts and 8-byte
// little-endian IEEE-754 floats, every uvarint in its shortest form, and
// the entries fill the value exactly: a value has one encoding, so an
// in-place edit and decode → update → encode agree byte for byte.
// Anything else — other bytes, unknown versions, padded uvarints,
// truncated or over-long payloads — decodes to a wrapped error, never a
// panic.
//
// Float scalars are the exception: they keep the historical raw 8-byte
// little-endian layout (no header) because windowed counters and
// thresholds were already binary, and the fixed width tells a bad value
// by its length alone.
package statecodec

import (
	"encoding/binary"
	"fmt"
	"math"

	"tencentrec/internal/core"
)

// tagBinary is the first byte of every header-carrying binary value.
const tagBinary = 0x01

// Type bytes, one per stored status-data shape.
const (
	typeHistory = 'H'
	typeList    = 'L'
	typeProfile = 'P'
)

// Format versions, one per type byte. Bump a type's version when its
// payload layout changes; a decoder refuses every other version, so the
// store is rebuilt from the action log across a bump, not migrated.
const (
	// version is the format of lists, profiles and the action record.
	version = 1
	// historyVersion is the format of histories.
	historyVersion = 2
)

// versionOf returns the format version typ is written and read in.
func versionOf(typ byte) byte {
	if typ == typeHistory {
		return historyVersion
	}
	return version
}

// EncodeFloat encodes a float64 scalar (counters, thresholds, scores)
// as 8 little-endian bytes.
func EncodeFloat(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

// DecodeFloat reverses EncodeFloat.
func DecodeFloat(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("statecodec: float value has %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Rating is one entry in a stored user behavior history. Its session is
// not stored: it is the window clock's session of TS.
type Rating struct {
	Rating float64
	TS     int64
}

// History is the stored form of a user's behavior history: item id to
// the max-weight rating with its timestamp.
type History map[string]Rating

// List is a stored scored-item list (similar items, hot items, AR
// consequents, CTR rankings), descending by score.
type List []core.ScoredItem

// Profile is a stored CB interest or item content profile.
type Profile struct {
	Weights   map[string]float64
	UpdatedTS int64
	Published int64
}

// header emits the three-byte binary header.
func header(buf []byte, typ byte) []byte {
	return append(buf, tagBinary, typ, versionOf(typ))
}

// checkHeader validates a binary header and returns the payload.
func checkHeader(b []byte, typ byte, what string) ([]byte, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("statecodec: %s value truncated (%d bytes)", what, len(b))
	}
	if b[0] != tagBinary {
		return nil, fmt.Errorf("statecodec: %s value is not a binary frame (first byte %#x)", what, b[0])
	}
	if b[1] != typ {
		return nil, fmt.Errorf("statecodec: %s value has type byte %q, want %q", what, b[1], typ)
	}
	if b[2] != versionOf(typ) {
		return nil, fmt.Errorf("statecodec: %s value has unknown format version %d", what, b[2])
	}
	return b[3:], nil
}

// checkEnd rejects bytes after the last entry: a well-formed value is
// filled by its entries exactly.
func checkEnd(rest []byte, what string) error {
	if len(rest) != 0 {
		return fmt.Errorf("statecodec: %s value has %d bytes after its last entry", what, len(rest))
	}
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readUvarint reads a uvarint and reports its width, or 0 when it is
// truncated, overflows 64 bits or is padded with a zero continuation
// group (the one way binary.Uvarint accepts two encodings of a value;
// every writer emits the shortest).
func readUvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n, sz := binary.Uvarint(b)
	if sz <= 0 || b[sz-1] == 0 {
		return 0, 0
	}
	return n, sz
}

func readString(b []byte, what string) (string, []byte, error) {
	n, sz := readUvarint(b)
	if sz == 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("statecodec: %s string length corrupt", what)
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func readFloat(b []byte, what string) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("statecodec: %s float truncated", what)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func readInt64(b []byte, what string) (int64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("statecodec: %s int64 truncated", what)
	}
	return int64(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func readCount(b []byte, what string) (int, []byte, error) {
	n, sz := readUvarint(b)
	// Each encoded entry occupies at least one byte, so a count beyond
	// the remaining payload is corruption, not a big value.
	if sz == 0 || n > uint64(len(b)-sz) {
		return 0, nil, fmt.Errorf("statecodec: %s count corrupt", what)
	}
	return int(n), b[sz:], nil
}

// EncodeHistory serializes a behavior history in binary form.
func EncodeHistory(h History) []byte {
	buf := header(make([]byte, 0, 3+len(h)*24), typeHistory)
	buf = binary.AppendUvarint(buf, uint64(len(h)))
	for item, r := range h {
		buf = appendString(buf, item)
		buf = appendFloat(buf, r.Rating)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.TS))
	}
	return buf
}

// DecodeHistory parses a stored history.
func DecodeHistory(b []byte) (History, error) {
	rest, err := checkHeader(b, typeHistory, "history")
	if err != nil {
		return nil, err
	}
	n, rest, err := readCount(rest, "history")
	if err != nil {
		return nil, err
	}
	h := make(History, n)
	for i := 0; i < n; i++ {
		var item string
		var r Rating
		if item, rest, err = readString(rest, "history item"); err != nil {
			return nil, err
		}
		if r.Rating, rest, err = readFloat(rest, "history rating"); err != nil {
			return nil, err
		}
		if r.TS, rest, err = readInt64(rest, "history ts"); err != nil {
			return nil, err
		}
		h[item] = r
	}
	return h, checkEnd(rest, "history")
}

// EncodeList serializes a scored-item list in binary form.
func EncodeList(l List) []byte {
	buf := header(make([]byte, 0, 3+len(l)*24), typeList)
	buf = binary.AppendUvarint(buf, uint64(len(l)))
	for _, sc := range l {
		buf = appendString(buf, sc.Item)
		buf = appendFloat(buf, sc.Score)
	}
	return buf
}

// DecodeList parses a stored scored list.
func DecodeList(b []byte) (List, error) {
	rest, err := checkHeader(b, typeList, "list")
	if err != nil {
		return nil, err
	}
	n, rest, err := readCount(rest, "list")
	if err != nil {
		return nil, err
	}
	l := make(List, 0, n)
	for i := 0; i < n; i++ {
		var sc core.ScoredItem
		if sc.Item, rest, err = readString(rest, "list item"); err != nil {
			return nil, err
		}
		if sc.Score, rest, err = readFloat(rest, "list score"); err != nil {
			return nil, err
		}
		l = append(l, sc)
	}
	return l, checkEnd(rest, "list")
}

// EncodeProfile serializes a term-weight profile in binary form.
func EncodeProfile(p Profile) []byte {
	buf := header(make([]byte, 0, 3+16+len(p.Weights)*24), typeProfile)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.UpdatedTS))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Published))
	buf = binary.AppendUvarint(buf, uint64(len(p.Weights)))
	for term, w := range p.Weights {
		buf = appendString(buf, term)
		buf = appendFloat(buf, w)
	}
	return buf
}

// DecodeProfile parses a stored profile.
func DecodeProfile(b []byte) (Profile, error) {
	rest, err := checkHeader(b, typeProfile, "profile")
	if err != nil {
		return Profile{}, err
	}
	var p Profile
	if p.UpdatedTS, rest, err = readInt64(rest, "profile updated"); err != nil {
		return Profile{}, err
	}
	if p.Published, rest, err = readInt64(rest, "profile published"); err != nil {
		return Profile{}, err
	}
	n, rest, err := readCount(rest, "profile")
	if err != nil {
		return Profile{}, err
	}
	p.Weights = make(map[string]float64, n)
	for i := 0; i < n; i++ {
		var term string
		var w float64
		if term, rest, err = readString(rest, "profile term"); err != nil {
			return Profile{}, err
		}
		if w, rest, err = readFloat(rest, "profile weight"); err != nil {
			return Profile{}, err
		}
		p.Weights[term] = w
	}
	return p, checkEnd(rest, "profile")
}
