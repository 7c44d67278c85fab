package core

import (
	"sort"
	"time"

	"tencentrec/internal/window"
)

// Config parameterizes an ItemCF engine.
type Config struct {
	// Weights maps action types to implicit-feedback weights.
	// Nil selects DefaultWeights. Actions with no weight are ignored.
	Weights map[ActionType]float64
	// TopK is the size of each item's similar-items list (the k of
	// Nk(ip) in Eq. 2). Default 20.
	TopK int
	// RecentK is the number of a user's most recent items used for
	// prediction — the real-time personalized filtering of §4.3.
	// Default 10.
	RecentK int
	// LinkedTime is the co-rating window of §4.1.4: two items form a
	// pair only when the same user rates both within this period
	// ("six hours" for news, "three days or seven days" for
	// e-commerce). Zero means unbounded.
	LinkedTime time.Duration
	// WindowSessions is W, the number of sessions in the sliding window
	// of Eq. 10. Zero disables windowing (lifetime counts).
	WindowSessions int
	// SessionDuration is the length of one session (the window's
	// sliding step). Default one hour when WindowSessions > 0.
	SessionDuration time.Duration
	// PruningDelta is the δ of the Hoeffding bound (Eq. 9); pruning is
	// enabled when it is in (0, 1). Smaller δ prunes more cautiously.
	PruningDelta float64
	// MaxUserHistory caps the rated items retained per user. Oldest
	// entries are evicted first. Default 200.
	MaxUserHistory int
	// MinSimilarity is the score below which a recommendation candidate
	// is considered ineffective, triggering the demographic complement
	// of §4.3 ("the item pairs' similarity scores are too low").
	MinSimilarity float64
	// Complement, when non-nil, supplies fallback recommendations
	// (typically the demographic-based algorithm's hot items) used to
	// fill the slate when CF candidates are missing or too weak.
	Complement func(user string, n int) []ScoredItem
}

func (c Config) withDefaults() Config {
	if c.Weights == nil {
		c.Weights = DefaultWeights()
	}
	if c.TopK <= 0 {
		c.TopK = 20
	}
	if c.RecentK <= 0 {
		c.RecentK = 10
	}
	if c.WindowSessions > 0 && c.SessionDuration <= 0 {
		c.SessionDuration = time.Hour
	}
	if c.MaxUserHistory <= 0 {
		c.MaxUserHistory = 200
	}
	return c
}

// ratedItem is one user-item rating with its provenance.
type ratedItem struct {
	rating  float64
	time    time.Time
	session int64
}

// userHistory is the per-user state of Fig. 4's first layer: "the old
// ratings and co-ratings are saved in the user's behavior history".
type userHistory struct {
	ratings map[string]*ratedItem
}

// Stats counts the work the engine performed, for the pruning and
// scalability ablations.
type Stats struct {
	// Observations counts processed actions.
	Observations int64
	// PairUpdates counts item-pair similarity recomputations.
	PairUpdates int64
	// PrunedSkips counts pair updates avoided because the pair was in a
	// pruning list Li.
	PrunedSkips int64
	// PrunedPairs counts pairs added to pruning lists.
	PrunedPairs int64
}

// ItemCF is the practical scalable item-based CF engine of §4.1.
// It is not safe for concurrent use: in the distributed pipeline every
// instance is owned by one task (fields grouping), and library users
// provide their own synchronization.
type ItemCF struct {
	cfg   Config
	clock window.Clock

	users      map[string]*userHistory
	itemCounts map[string]*window.Counter
	pairCounts map[pairKey]*window.Counter
	pairN      map[pairKey]int // Hoeffding observation counts n_ij
	pruned     map[pairKey]bool
	topk       map[string]*TopK

	stats Stats
}

// NewItemCF returns an engine with the given configuration.
func NewItemCF(cfg Config) *ItemCF {
	c := cfg.withDefaults()
	return &ItemCF{
		cfg:        c,
		clock:      window.Clock{Session: c.SessionDuration},
		users:      make(map[string]*userHistory),
		itemCounts: make(map[string]*window.Counter),
		pairCounts: make(map[pairKey]*window.Counter),
		pairN:      make(map[pairKey]int),
		pruned:     make(map[pairKey]bool),
		topk:       make(map[string]*TopK),
	}
}

// Stats returns the engine's work counters.
func (cf *ItemCF) Stats() Stats { return cf.stats }

func (cf *ItemCF) itemCounter(item string) *window.Counter {
	c, ok := cf.itemCounts[item]
	if !ok {
		c = window.NewCounter(cf.cfg.WindowSessions)
		cf.itemCounts[item] = c
	}
	return c
}

func (cf *ItemCF) pairCounter(k pairKey) *window.Counter {
	c, ok := cf.pairCounts[k]
	if !ok {
		c = window.NewCounter(cf.cfg.WindowSessions)
		cf.pairCounts[k] = c
	}
	return c
}

func (cf *ItemCF) topkFor(item string) *TopK {
	t, ok := cf.topk[item]
	if !ok {
		t = NewTopK(cf.cfg.TopK)
		cf.topk[item] = t
	}
	return t
}

// effectiveRating returns the stored rating if it is still visible in the
// current sliding window, else zero (Eq. 10: ratings "given by user u in
// recent W sessions").
func (cf *ItemCF) effectiveRating(r *ratedItem, session int64) float64 {
	if r == nil {
		return 0
	}
	if cf.cfg.WindowSessions > 0 && r.session <= session-int64(cf.cfg.WindowSessions) {
		return 0
	}
	return r.rating
}

// Observe processes one user action: the full inner loop of Algorithm 1
// plus the rating bookkeeping of Fig. 4's user-history layer.
func (cf *ItemCF) Observe(a Action) {
	weight, ok := cf.cfg.Weights[a.Type]
	if !ok || weight <= 0 {
		return
	}
	cf.stats.Observations++
	session := cf.clock.SessionOf(a.Time)

	uh := cf.users[a.User]
	if uh == nil {
		uh = &userHistory{ratings: make(map[string]*ratedItem)}
		cf.users[a.User] = uh
	}

	// New rating = max action weight (§4.1.2); the delta feeds Eq. 8.
	cur := uh.ratings[a.Item]
	oldR := cf.effectiveRating(cur, session)
	newR := oldR
	if weight > newR {
		newR = weight
	}
	deltaR := newR - oldR
	if deltaR > 0 {
		cf.itemCounter(a.Item).Add(session, deltaR)
	}
	if cur == nil {
		cur = &ratedItem{}
		uh.ratings[a.Item] = cur
		cf.evictIfNeeded(uh, a.Item)
	}
	cur.rating = newR
	cur.time = a.Time
	cur.session = session

	// Pair updates against every other item the user rated within the
	// linked time (§4.1.4). Iteration is sorted so similarity updates —
	// and therefore top-K tie ordering — are reproducible.
	others := make([]string, 0, len(uh.ratings))
	for j := range uh.ratings {
		if j != a.Item {
			others = append(others, j)
		}
	}
	sort.Strings(others)
	for _, j := range others {
		rj := uh.ratings[j]
		if cf.cfg.LinkedTime > 0 && a.Time.Sub(rj.time) > cf.cfg.LinkedTime {
			continue
		}
		rJ := cf.effectiveRating(rj, session)
		if rJ <= 0 {
			continue
		}
		key := makePair(a.Item, j)
		if cf.pruned[key] {
			cf.stats.PrunedSkips++
			continue
		}
		// Δco-rating from the rating change (Eq. 3 / Eq. 8).
		deltaCo := CoRating(newR, rJ) - CoRating(oldR, rJ)
		pc := cf.pairCounter(key)
		if deltaCo != 0 {
			pc.Add(session, deltaCo)
		}
		sim := Similarity(
			pc.Sum(session),
			cf.itemCounter(a.Item).Sum(session),
			cf.itemCounter(j).Sum(session),
		)
		cf.stats.PairUpdates++
		cf.topkFor(a.Item).Update(j, sim)
		cf.topkFor(j).Update(a.Item, sim)
		cf.pairN[key]++

		// Real-time pruning (Algorithm 1, lines 9-17).
		if cf.cfg.PruningDelta > 0 && cf.cfg.PruningDelta < 1 {
			t1 := cf.topkFor(a.Item).Threshold()
			t2 := cf.topkFor(j).Threshold()
			t := t1
			if t2 < t {
				t = t2
			}
			eps := HoeffdingEpsilon(1, cf.cfg.PruningDelta, cf.pairN[key])
			if eps < t-sim {
				cf.pruned[key] = true
				cf.stats.PrunedPairs++
				// The pair can no longer enter either top-K list;
				// free its counters and drop any stale entries.
				delete(cf.pairCounts, key)
				cf.topkFor(a.Item).Remove(j)
				cf.topkFor(j).Remove(a.Item)
			}
		}
	}
}

// evictIfNeeded drops the user's oldest rated item beyond the cap.
func (cf *ItemCF) evictIfNeeded(uh *userHistory, justAdded string) {
	if len(uh.ratings) <= cf.cfg.MaxUserHistory {
		return
	}
	oldestItem := ""
	var oldest time.Time
	for item, r := range uh.ratings {
		if item == justAdded {
			continue
		}
		if oldestItem == "" || r.time.Before(oldest) ||
			(r.time.Equal(oldest) && item < oldestItem) {
			oldestItem = item
			oldest = r.time
		}
	}
	if oldestItem != "" {
		delete(uh.ratings, oldestItem)
	}
}

// Similarity returns the current similarity of an item pair as of now.
func (cf *ItemCF) Similarity(p, q string, now time.Time) float64 {
	key := makePair(p, q)
	pc, ok := cf.pairCounts[key]
	if !ok {
		return 0
	}
	session := cf.clock.SessionOf(now)
	ip, ok1 := cf.itemCounts[p]
	iq, ok2 := cf.itemCounts[q]
	if !ok1 || !ok2 {
		return 0
	}
	return Similarity(pc.Sum(session), ip.Sum(session), iq.Sum(session))
}

// SimilarItems returns up to n entries of item's similar-items list.
func (cf *ItemCF) SimilarItems(item string, n int) []ScoredItem {
	t, ok := cf.topk[item]
	if !ok {
		return nil
	}
	return t.Items(n)
}

// UserRating returns the user's current rating for an item (0 if none).
func (cf *ItemCF) UserRating(user, item string) float64 {
	uh := cf.users[user]
	if uh == nil {
		return 0
	}
	if r := uh.ratings[item]; r != nil {
		return r.rating
	}
	return 0
}

// recentItems returns the user's most recent k rated items, newest first.
func (cf *ItemCF) recentItems(user string, k int, now time.Time) []ratedRef {
	uh := cf.users[user]
	if uh == nil {
		return nil
	}
	refs := make([]ratedRef, 0, len(uh.ratings))
	for item, r := range uh.ratings {
		if cf.cfg.LinkedTime > 0 && now.Sub(r.time) > cf.cfg.LinkedTime {
			continue
		}
		refs = append(refs, ratedRef{item: item, rating: r.rating, time: r.time})
	}
	sort.Slice(refs, func(i, j int) bool {
		if !refs[i].time.Equal(refs[j].time) {
			return refs[i].time.After(refs[j].time)
		}
		return refs[i].item < refs[j].item // stable under time ties
	})
	if len(refs) > k {
		refs = refs[:k]
	}
	return refs
}

type ratedRef struct {
	item   string
	rating float64
	time   time.Time
}

// PairCount exposes the current pair counter value, for tests.
func (cf *ItemCF) PairCount(p, q string, now time.Time) float64 {
	pc, ok := cf.pairCounts[makePair(p, q)]
	if !ok {
		return 0
	}
	return pc.Sum(cf.clock.SessionOf(now))
}

// ItemCount exposes the current item counter value, for tests.
func (cf *ItemCF) ItemCount(item string, now time.Time) float64 {
	ic, ok := cf.itemCounts[item]
	if !ok {
		return 0
	}
	return ic.Sum(cf.clock.SessionOf(now))
}

// IsPruned reports whether the pair is in a pruning list.
func (cf *ItemCF) IsPruned(p, q string) bool { return cf.pruned[makePair(p, q)] }
