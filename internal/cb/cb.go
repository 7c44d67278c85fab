// Package cb implements TencentRec's content-based recommendation
// algorithm (§4, [18] in the paper): it learns a term-vector profile of
// each user's interests from the content of the items they interact with,
// and recommends items whose content matches the profile.
//
// The paper deploys CB for news recommendation, "because of the rich
// content information and the emerging new items" (§6.2): a brand-new
// item is recommendable the moment its content is known, with no need
// for interaction history. Item vectors are TF-IDF weighted; user
// profiles decay exponentially so that real-time interest shifts
// dominate (the recency sensitivity evaluated in Fig. 10).
package cb

import (
	"math"
	"sort"
	"time"

	"tencentrec/internal/core"
)

// Config parameterizes a content-based engine.
type Config struct {
	// Weights maps action types to interest weights, as in core.Config.
	// Nil selects core.DefaultWeights.
	Weights map[core.ActionType]float64
	// HalfLife is the user-profile decay half-life: an interest's
	// weight halves every HalfLife. Zero disables decay.
	HalfLife time.Duration
	// MaxItemAge drops items from the recommendable pool once their
	// publication is older than this ("the life span of items is
	// short" for news). Zero keeps items forever.
	MaxItemAge time.Duration
	// MaxProfileTerms caps the number of terms retained per user
	// profile; the weakest terms are dropped. Default 64.
	MaxProfileTerms int
}

func (c Config) withDefaults() Config {
	if c.Weights == nil {
		c.Weights = core.DefaultWeights()
	}
	if c.MaxProfileTerms <= 0 {
		c.MaxProfileTerms = 64
	}
	return c
}

// itemProfile is a normalized TF vector with publication metadata.
// IDF is applied at scoring time so that evolving document frequencies
// do not require re-normalizing old items.
type itemProfile struct {
	tf        map[string]float64 // term -> normalized term frequency
	published time.Time
}

// userProfile is a decayed term-weight vector.
type userProfile struct {
	weights map[string]float64
	updated time.Time
}

// Engine is an incremental content-based recommender.
// It is not safe for concurrent use.
type Engine struct {
	cfg Config

	items    map[string]*itemProfile
	df       map[string]int // term -> number of items containing it
	numItems int
	inverted map[string]map[string]bool // term -> set of item ids
	users    map[string]*userProfile
}

// NewEngine returns an empty content-based engine.
func NewEngine(cfg Config) *Engine {
	return &Engine{
		cfg:      cfg.withDefaults(),
		items:    make(map[string]*itemProfile),
		df:       make(map[string]int),
		inverted: make(map[string]map[string]bool),
		users:    make(map[string]*userProfile),
	}
}

// AddItem registers (or replaces) an item with its content terms.
// New items are immediately recommendable — the CB answer to item
// cold-start.
func (e *Engine) AddItem(id string, terms []string, published time.Time) {
	if old, ok := e.items[id]; ok {
		for t := range old.tf {
			e.df[t]--
			delete(e.inverted[t], id)
		}
		e.numItems--
	}
	counts := make(map[string]float64)
	for _, t := range terms {
		counts[t]++
	}
	var norm float64
	for _, c := range counts {
		norm += c * c
	}
	norm = math.Sqrt(norm)
	p := &itemProfile{tf: make(map[string]float64, len(counts)), published: published}
	for t, c := range counts {
		p.tf[t] = c / norm
		e.df[t]++
		set := e.inverted[t]
		if set == nil {
			set = make(map[string]bool)
			e.inverted[t] = set
		}
		set[id] = true
	}
	e.items[id] = p
	e.numItems++
}

// RemoveItem drops an item from the pool.
func (e *Engine) RemoveItem(id string) {
	p, ok := e.items[id]
	if !ok {
		return
	}
	for t := range p.tf {
		e.df[t]--
		delete(e.inverted[t], id)
	}
	delete(e.items, id)
	e.numItems--
}

// idf returns the inverse document frequency of a term.
func (e *Engine) idf(term string) float64 {
	df := e.df[term]
	if df <= 0 {
		return 0
	}
	return math.Log(1 + float64(e.numItems)/float64(df))
}

// decay applies exponential decay to a profile up to now.
func (e *Engine) decay(p *userProfile, now time.Time) {
	if e.cfg.HalfLife <= 0 || p.updated.IsZero() {
		p.updated = now
		return
	}
	dt := now.Sub(p.updated)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-float64(dt) / float64(e.cfg.HalfLife))
	for t, w := range p.weights {
		w *= f
		if w < 1e-6 {
			delete(p.weights, t)
		} else {
			p.weights[t] = w
		}
	}
	p.updated = now
}

// Observe folds one user action into the user's interest profile:
// the item's TF-IDF vector scaled by the action weight, on top of the
// decayed existing profile.
func (e *Engine) Observe(a core.Action) {
	w, ok := e.cfg.Weights[a.Type]
	if !ok || w <= 0 {
		return
	}
	item, ok := e.items[a.Item]
	if !ok {
		return // content unknown; nothing to learn from
	}
	p := e.users[a.User]
	if p == nil {
		p = &userProfile{weights: make(map[string]float64)}
		e.users[a.User] = p
	}
	e.decay(p, a.Time)
	for t, tf := range item.tf {
		p.weights[t] += w * tf * e.idf(t)
	}
	e.trimProfile(p)
}

// trimProfile drops the weakest terms beyond the cap.
func (e *Engine) trimProfile(p *userProfile) {
	if len(p.weights) <= e.cfg.MaxProfileTerms {
		return
	}
	type tw struct {
		t string
		w float64
	}
	all := make([]tw, 0, len(p.weights))
	for t, w := range p.weights {
		all = append(all, tw{t, w})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].w > all[j].w })
	for _, x := range all[e.cfg.MaxProfileTerms:] {
		delete(p.weights, x.t)
	}
}

// Recommend scores the pool against the user's decayed profile and
// returns the n best fresh items the user has not been excluded from.
func (e *Engine) Recommend(user string, now time.Time, n int, exclude map[string]bool) []core.ScoredItem {
	p := e.users[user]
	if p == nil || len(p.weights) == 0 {
		return nil
	}
	e.decay(p, now)
	return e.match(p.weights, now, n, exclude)
}

// match scores candidate items against a term-weight vector through the
// inverted index.
func (e *Engine) match(weights map[string]float64, now time.Time, n int, exclude map[string]bool) []core.ScoredItem {
	scores := make(map[string]float64)
	// Deterministic term order keeps floating-point accumulation — and
	// therefore rankings — reproducible across runs.
	terms := make([]string, 0, len(weights))
	for t := range weights {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		w := weights[t]
		idf := e.idf(t)
		if idf == 0 {
			continue
		}
		for id := range e.inverted[t] {
			item := e.items[id]
			if e.cfg.MaxItemAge > 0 && now.Sub(item.published) > e.cfg.MaxItemAge {
				continue
			}
			if exclude[id] {
				continue
			}
			scores[id] += w * item.tf[t] * idf
		}
	}
	out := make([]core.ScoredItem, 0, len(scores))
	for id, s := range scores {
		out = append(out, core.ScoredItem{Item: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Item < out[j].Item
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Model is a frozen snapshot of user profiles and the item pool, the
// "semi-real-time" baseline of §6.3 whose "CB recommendation model is
// updated once an hour".
type Model struct {
	engine   *Engine // frozen copy; never mutated after snapshot
	snapTime time.Time
}

// Snapshot deep-copies the engine state into an immutable model.
func (e *Engine) Snapshot(now time.Time) *Model {
	cp := NewEngine(e.cfg)
	cp.numItems = e.numItems
	for id, p := range e.items {
		tf := make(map[string]float64, len(p.tf))
		for t, v := range p.tf {
			tf[t] = v
		}
		cp.items[id] = &itemProfile{tf: tf, published: p.published}
	}
	for t, d := range e.df {
		cp.df[t] = d
	}
	for t, set := range e.inverted {
		s2 := make(map[string]bool, len(set))
		for id := range set {
			s2[id] = true
		}
		cp.inverted[t] = s2
	}
	for u, p := range e.users {
		w2 := make(map[string]float64, len(p.weights))
		for t, w := range p.weights {
			w2[t] = w
		}
		cp.users[u] = &userProfile{weights: w2, updated: p.updated}
	}
	return &Model{engine: cp, snapTime: now}
}

// Recommend serves from the frozen state: profiles do not learn from
// actions that happened after the snapshot, and items added later are
// invisible — exactly the staleness the real-time system eliminates.
func (m *Model) Recommend(user string, now time.Time, n int, exclude map[string]bool) []core.ScoredItem {
	p := m.engine.users[user]
	if p == nil || len(p.weights) == 0 {
		return nil
	}
	// Freshness filtering still applies at serve time.
	return m.engine.match(p.weights, now, n, exclude)
}
