package topology

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"tencentrec/internal/statecodec"
)

// encodeFloat stores a float64 scalar (thresholds, scores). The format
// is owned by package statecodec, shared with the TDStore counter path.
func encodeFloat(v float64) []byte {
	return statecodec.EncodeFloat(v)
}

// decodeFloat reverses encodeFloat.
func decodeFloat(b []byte) (float64, error) {
	v, err := statecodec.DecodeFloat(b)
	if err != nil {
		return 0, fmt.Errorf("topology: %w", err)
	}
	return v, nil
}

// RawAction is one user behaviour as an application publishes it,
// optionally carrying the situation dimensions the CTR algorithm needs.
// On the TDAccess log it is the binary frame EncodeAction writes; the
// JSON tags serve the two places where a person or an HTTP client writes
// the record (POST /action, cmd/loadgen).
type RawAction struct {
	User   string `json:"user"`
	Item   string `json:"item"`
	Action string `json:"action"`
	// TS is the event time in Unix nanoseconds.
	TS int64 `json:"ts"`
	// Situation dimensions (optional; ads traffic).
	Region   string `json:"region,omitempty"`
	Gender   string `json:"gender,omitempty"`
	Age      string `json:"age,omitempty"`
	Position string `json:"position,omitempty"`
}

// The action frame, version 1. After the three-byte statecodec header
// (0x01 'A' 0x01) come, in this order and filling the frame exactly,
//
//	user | item | action | ts | region | gender | age | position
//
// where each string is a uvarint byte length and that many bytes, and ts
// is the zigzag varint of the event time in Unix nanoseconds. Every
// varint is minimally encoded, so a frame has one encoding and an
// accepted frame re-encodes to the same bytes.

// EncodeAction serializes a raw action for TDAccess.
func EncodeAction(a RawAction) []byte {
	// One length byte per string covers ids below 128 bytes; append
	// grows the rare longer frame.
	n := 3 + 7 + binary.MaxVarintLen64 + len(a.User) + len(a.Item) + len(a.Action) +
		len(a.Region) + len(a.Gender) + len(a.Age) + len(a.Position)
	buf := statecodec.AppendHeader(make([]byte, 0, n), statecodec.TypeAction)
	buf = statecodec.AppendString(buf, a.User)
	buf = statecodec.AppendString(buf, a.Item)
	buf = statecodec.AppendString(buf, a.Action)
	buf = binary.AppendVarint(buf, a.TS)
	buf = statecodec.AppendString(buf, a.Region)
	buf = statecodec.AppendString(buf, a.Gender)
	buf = statecodec.AppendString(buf, a.Age)
	return statecodec.AppendString(buf, a.Position)
}

// actionView is a validated action frame. Its byte fields alias the
// frame, so Pretreatment can look the action name up and drop an
// unqualified tuple without allocating.
type actionView struct {
	user, item, action            []byte
	ts                            int64
	region, gender, age, position []byte
}

// parseAction validates a whole action frame (header, every length,
// nothing after the last field) before it returns any of it.
func parseAction(b []byte) (actionView, error) {
	rest, err := statecodec.CheckHeader(b, statecodec.TypeAction, "action")
	if err != nil {
		return actionView{}, fmt.Errorf("topology: bad action payload: %w", err)
	}
	// A field that fails leaves rest nil, which fails every field after
	// it, so the last ok speaks for all eight.
	var v actionView
	v.user, rest, _ = actionField(rest)
	v.item, rest, _ = actionField(rest)
	v.action, rest, _ = actionField(rest)
	ux, sz := statecodec.ReadUvarint(rest)
	if sz == 0 {
		rest = nil
	} else {
		rest = rest[sz:]
	}
	v.ts = int64(ux>>1) ^ -int64(ux&1) // zigzag, as binary.Varint
	v.region, rest, _ = actionField(rest)
	v.gender, rest, _ = actionField(rest)
	v.age, rest, _ = actionField(rest)
	var ok bool
	if v.position, rest, ok = actionField(rest); !ok {
		return actionView{}, fmt.Errorf("topology: bad action payload: field length corrupt (%d bytes)", len(b))
	}
	if len(rest) != 0 {
		return actionView{}, fmt.Errorf("topology: bad action payload: %d bytes after the last field", len(rest))
	}
	return v, nil
}

// actionField splits one length-prefixed field off b.
func actionField(b []byte) (f, rest []byte, ok bool) {
	n, sz := statecodec.ReadUvarint(b)
	if sz == 0 || n > uint64(len(b)-sz) {
		return nil, nil, false
	}
	end := sz + int(n)
	return b[sz:end], b[end:], true
}

// DecodeAction parses a TDAccess payload.
func DecodeAction(b []byte) (RawAction, error) {
	v, err := parseAction(b)
	if err != nil {
		return RawAction{}, err
	}
	return RawAction{
		User: string(v.user), Item: string(v.item), Action: string(v.action), TS: v.ts,
		Region: string(v.region), Gender: string(v.gender), Age: string(v.age), Position: string(v.position),
	}, nil
}

// Time returns the action's event time.
func (a RawAction) Time() time.Time { return time.Unix(0, a.TS) }

// State key prefixes. One flat TDStore namespace serves all bolts; the
// prefixes keep the statistics of Fig. 6's units disjoint.
const (
	prefixUserHistory = "uh:"  // user -> rated items
	prefixItemCount   = "ic:"  // item -> windowed Σ ratings (Eq. 6)
	prefixPairCount   = "pc:"  // pair -> windowed Σ co-ratings (Eq. 7)
	prefixPairN       = "pn:"  // pair -> Hoeffding observation count
	prefixPruned      = "pl:"  // pair -> pruned flag (Algorithm 1's Li)
	prefixThreshold   = "th:"  // item -> top-K list threshold
	prefixSimilar     = "sl:"  // item -> similar-items list
	prefixItemInfo    = "ii:"  // item -> content profile
	prefixUserProfile = "up:"  // user -> CB term weights
	prefixGroupCount  = "gc:"  // group|item -> windowed popularity
	prefixHotList     = "hot:" // group -> hot-items list
	prefixARPair      = "ap:"  // pair -> transaction co-occurrence count
	prefixARItem      = "ai:"  // item -> transaction support
	prefixARList      = "al:"  // item -> rule consequents by confidence
	prefixCtrImp      = "cim:" // sit|item -> windowed impressions
	prefixCtrClk      = "ccl:" // sit|item -> windowed clicks
	prefixCtrTop      = "ctp:" // sit -> items by smoothed CTR
)

// splitPair reverses the interner's pair: an item pair as a state key
// component, the lexicographically ordered items joined by 0x1f.
func splitPair(id string) (string, string) {
	i := strings.IndexByte(id, 0x1f)
	if i < 0 {
		return id, ""
	}
	return id[:i], id[i+1:]
}

// The persisted status-data types are owned by package statecodec,
// which defines their versioned binary wire format. The aliases keep bolt
// and serving code reading naturally. The writers never decode a history
// or a list: each patches its encoded frame through the statecodec edits;
// the decoders below serve the query side.
type (
	// storedRating is one entry in a persisted user history.
	storedRating = statecodec.Rating
	// storedHistory is the decoded form of a user's behavior history.
	storedHistory = statecodec.History
	// storedList is a decoded scored-item list (similar items, hot
	// items, AR consequents, CTR rankings), descending by score.
	storedList = statecodec.List
	// storedProfile is a persisted CB interest or item profile.
	storedProfile = statecodec.Profile
)

// errBadFrame reports a stored history or list the statecodec edits
// declined, which they do only for bytes the decoder rejects too.
func errBadFrame(key string, raw []byte) error {
	return fmt.Errorf("topology: malformed value under %q (%d bytes)", key, len(raw))
}

func decodeHistory(b []byte) (storedHistory, error) {
	h, err := statecodec.DecodeHistory(b)
	if err != nil {
		return nil, fmt.Errorf("topology: bad user history: %w", err)
	}
	return h, nil
}

func decodeList(b []byte) (storedList, error) {
	l, err := statecodec.DecodeList(b)
	if err != nil {
		return nil, fmt.Errorf("topology: bad scored list: %w", err)
	}
	return l, nil
}

func encodeProfile(p storedProfile) []byte {
	return statecodec.EncodeProfile(p)
}

func decodeProfile(b []byte) (storedProfile, error) {
	p, err := statecodec.DecodeProfile(b)
	if err != nil {
		return storedProfile{}, fmt.Errorf("topology: bad profile: %w", err)
	}
	return p, nil
}
