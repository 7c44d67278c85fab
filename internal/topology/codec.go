package topology

import (
	"encoding/json"
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

// RawAction is the wire format applications publish into TDAccess: one
// JSON object per user behaviour, optionally carrying the situation
// dimensions the CTR algorithm needs.
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

// EncodeAction serializes a raw action for TDAccess.
func EncodeAction(a RawAction) []byte {
	b, _ := json.Marshal(a) // struct of plain fields cannot fail
	return b
}

// DecodeAction parses a TDAccess payload.
func DecodeAction(b []byte) (RawAction, error) {
	var a RawAction
	if err := json.Unmarshal(b, &a); err != nil {
		return RawAction{}, fmt.Errorf("topology: bad action payload: %w", err)
	}
	return a, nil
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

// pairID canonically encodes an item pair as a state key component.
func pairID(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x1f" + b
}

// splitPair reverses pairID.
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
