// Package core implements TencentRec's practical scalable item-based
// collaborative filtering (§4.1) — the paper's primary algorithmic
// contribution — together with the real-time filtering mechanisms of
// §4.3.
//
// The algorithm's three pillars, each reproduced here:
//
//   - Implicit feedback handling (§4.1.2): user behaviours carry
//     per-action-type weights; a user's rating for an item is the MAX
//     weight among their actions on it, and the co-rating of an item
//     pair is the MIN of the two ratings (Eq. 3), with the similarity
//     normalized by Eq. 4/5 so scores stay in [0, 1].
//
//   - Scalable incremental update (§4.1.3): the similarity of a pair
//     decomposes into pairCount and two itemCounts (Eq. 5), each of
//     which updates incrementally from rating deltas (Eq. 8), so a
//     single observation touches only the affected counters.
//
//   - Real-time pruning (§4.1.4): the Hoeffding bound (Eq. 9) prunes
//     item pairs that, with probability 1-δ, can never enter either
//     item's top-K similar list (Algorithm 1), eliminating most of the
//     per-action pair computations.
//
// Sliding windows (Eq. 10) and the real-time personalized filtering of
// §4.3 (prediction from the user's most recent k items, with a
// demographic complement hook) are built in.
package core

import "time"

// ActionType classifies a user behaviour in the implicit feedback stream
// (§4.1.2: "click, browse, purchase, share, comment, etc.").
type ActionType string

// The behaviour types observed across the paper's applications.
const (
	ActionBrowse   ActionType = "browse"
	ActionClick    ActionType = "click"
	ActionRead     ActionType = "read"
	ActionShare    ActionType = "share"
	ActionComment  ActionType = "comment"
	ActionPurchase ActionType = "purchase"
	ActionPlay     ActionType = "play"
)

// DefaultWeights maps action types to implicit-feedback rating weights,
// following the paper's example scale where "a browse behavior may
// correspond to a one star rating while a purchase behavior corresponds
// to a three star rating".
func DefaultWeights() map[ActionType]float64 {
	return map[ActionType]float64{
		ActionBrowse:   1.0,
		ActionClick:    1.0,
		ActionRead:     1.5,
		ActionPlay:     1.5,
		ActionShare:    2.0,
		ActionComment:  2.0,
		ActionPurchase: 3.0,
	}
}

// Action is one user behaviour tuple: the <user, item, action>
// stream element of Fig. 4.
type Action struct {
	// User identifies the acting user.
	User string
	// Item identifies the item acted upon.
	Item string
	// Type is the behaviour type, mapped to a weight by the config.
	Type ActionType
	// Time is when the behaviour happened; it drives sessions, the
	// linked-time pair window and recency filtering.
	Time time.Time
}

// ScoredItem is an item with a recommendation or similarity score.
type ScoredItem struct {
	// Item is the item id.
	Item string
	// Score is the predicted preference (Eq. 2) or similarity (Eq. 5),
	// depending on the producing call.
	Score float64
}

// pairKey canonically orders an unordered item pair.
type pairKey struct{ a, b string }

func makePair(p, q string) pairKey {
	if p < q {
		return pairKey{p, q}
	}
	return pairKey{q, p}
}
