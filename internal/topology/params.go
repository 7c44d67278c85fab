package topology

import (
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/ctr"
	"tencentrec/internal/demographic"
	"tencentrec/internal/window"
)

// Params configures a TencentRec application topology. One Params value
// is shared by all bolt factories of a topology; it corresponds to the
// application-specific settings of a Fig. 7 XML file.
type Params struct {
	// Weights maps action types to implicit-feedback weights.
	// Nil selects core.DefaultWeights.
	Weights map[core.ActionType]float64
	// TopK bounds the similar-items and hot-items lists. Default 20.
	TopK int
	// LinkedTime is the co-rating window (§4.1.4). Zero = unbounded.
	LinkedTime time.Duration
	// WindowSessions and SessionDuration configure the sliding window
	// (Eq. 10). WindowSessions 0 disables windowing.
	WindowSessions  int
	SessionDuration time.Duration
	// PruningDelta enables Hoeffding pruning when in (0, 1).
	PruningDelta float64
	// MaxUserHistory caps stored rated items per user. Default 200.
	MaxUserHistory int
	// RecentK is the number of most recent user items driving the
	// query-time prediction (§4.3's real-time personalized filtering).
	// Default 10.
	RecentK int
	// MinSimilarity is the effectiveness floor below which candidates
	// are dropped and the DB complement kicks in (§4.3).
	MinSimilarity float64

	// FlushInterval is the combiner tick period (§5.3): the longest a staged
	// delta waits for its flush. Under backlog it is also how often the
	// combiners flush; when the pipeline goes idle over new input they are
	// ticked at once (no sooner than a sixteenth of the interval after the
	// last tick), so a trickle is queryable a tick round after its work is
	// done. Default 100ms.
	FlushInterval time.Duration
	// CacheSize is the per-task fine-grained cache capacity (§5.2).
	// Negative disables caching. Default 4096.
	CacheSize int
	// DisableCombiner routes every counter update straight to the store,
	// for the §5.3 ablation.
	DisableCombiner bool

	// ProfileFor resolves a user's demographic profile for the DB
	// statistics; nil files everyone under the global group.
	ProfileFor func(user string) demographic.Profile
	// GroupBy selects the demographic clustering properties.
	GroupBy demographic.GroupBy
	// CBHalfLife is the CB profile decay half-life. Zero disables decay.
	CBHalfLife time.Duration
	// CtrCuboids configures the situational CTR dimension subsets;
	// nil selects the ctr package defaults.
	CtrCuboids []ctr.Cuboid
	// CtrPriorClicks/CtrPriorImpressions smooth CTR scores.
	// Defaults 1 and 20.
	CtrPriorClicks      float64
	CtrPriorImpressions float64

	// Filter, when non-nil, is the FilterBolt predicate: results for
	// which it returns false are dropped before storage (application
	// rules such as "price within a certain range").
	Filter func(item string) bool
}

func (p Params) withDefaults() Params {
	if p.Weights == nil {
		p.Weights = core.DefaultWeights()
	}
	if p.TopK <= 0 {
		p.TopK = 20
	}
	if p.WindowSessions > 0 && p.SessionDuration <= 0 {
		p.SessionDuration = time.Hour
	}
	if p.MaxUserHistory <= 0 {
		p.MaxUserHistory = 200
	}
	if p.RecentK <= 0 {
		p.RecentK = 10
	}
	if p.FlushInterval <= 0 {
		p.FlushInterval = 100 * time.Millisecond
	}
	if p.CacheSize == 0 {
		p.CacheSize = 4096
	}
	if p.CtrPriorClicks <= 0 {
		p.CtrPriorClicks = 1
	}
	if p.CtrPriorImpressions <= 0 {
		p.CtrPriorImpressions = 20
	}
	return p
}

// clock returns the session clock for the configured window.
func (p Params) clock() window.Clock {
	return window.Clock{Session: p.SessionDuration}
}

// groupOf resolves a user's demographic group key.
func (p Params) groupOf(user string) string {
	if p.ProfileFor == nil {
		return demographic.GlobalGroup
	}
	return p.GroupBy.Key(p.ProfileFor(user))
}
