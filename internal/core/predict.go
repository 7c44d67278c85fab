package core

import (
	"sort"
	"time"
)

// RecommendOptions tune a single recommendation query.
type RecommendOptions struct {
	// N is the number of items to return.
	N int
	// Exclude lists items to filter from the slate (e.g. the item
	// currently displayed), in addition to the user's own rated items.
	Exclude map[string]bool
	// RankBySum ranks candidates by Σ sim·rating instead of the Eq. 2
	// weighted average. The weighted average is the paper's formula; the
	// sum favours items supported by several recent interests and is the
	// common production choice. Default false (faithful Eq. 2).
	RankBySum bool
}

// Recommend produces the user's recommendation slate at the given time.
//
// Following §4.3's real-time personalized filtering, candidate generation
// runs over the user's RecentK most recent items only: each recent item
// contributes its similar-items list, and candidates are scored by Eq. 2
// (the similarity-weighted average of the user's ratings). When CF yields
// no effective candidates — a cold user, or only candidates below
// MinSimilarity — the Complement hook (the demographic-based algorithm in
// production) fills the slate.
func (cf *ItemCF) Recommend(user string, now time.Time, opts RecommendOptions) []ScoredItem {
	if opts.N <= 0 {
		opts.N = 10
	}
	recents := cf.recentItems(user, cf.cfg.RecentK, now)
	uh := cf.users[user]

	type acc struct{ num, den float64 }
	cand := make(map[string]*acc)
	for _, r := range recents {
		t, ok := cf.topk[r.item]
		if !ok {
			continue
		}
		for _, s := range t.Items(0) {
			if s.Score < cf.cfg.MinSimilarity {
				continue // below the effectiveness floor (§4.3)
			}
			if uh != nil {
				if _, rated := uh.ratings[s.Item]; rated {
					continue
				}
			}
			if opts.Exclude[s.Item] {
				continue
			}
			a := cand[s.Item]
			if a == nil {
				a = &acc{}
				cand[s.Item] = a
			}
			a.num += s.Score * r.rating
			a.den += s.Score
		}
	}

	out := make([]ScoredItem, 0, len(cand))
	for item, a := range cand {
		if a.den <= 0 {
			continue
		}
		score := a.num / a.den // Eq. 2
		if opts.RankBySum {
			score = a.num
		}
		out = append(out, ScoredItem{Item: item, Score: score})
	}
	out = TopNScored(out, opts.N)

	// Demographic complement: "if the algorithm cannot produce efficient
	// recommendations in this way ... we use the real-time DB algorithm
	// results to complement" (§4.3).
	if len(out) < opts.N && cf.cfg.Complement != nil {
		have := make(map[string]bool, len(out))
		for _, s := range out {
			have[s.Item] = true
		}
		// The loop skips at most the len(out) chosen, the rated and the
		// excluded items, so asking for N plus the last two leaves
		// N-len(out) to keep whenever the hook has that many.
		want := opts.N + len(opts.Exclude)
		if uh != nil {
			want += len(uh.ratings)
		}
		for _, s := range cf.cfg.Complement(user, want) {
			if len(out) >= opts.N {
				break
			}
			if have[s.Item] || opts.Exclude[s.Item] {
				continue
			}
			if uh != nil {
				if _, rated := uh.ratings[s.Item]; rated {
					continue
				}
			}
			out = append(out, s)
			have[s.Item] = true
		}
	}
	return out
}

// Model is an immutable snapshot of the similar-items tables, used to
// reproduce the paper's "Original" comparators: models trained the same
// way but refreshed only periodically (offline or semi-real-time) rather
// than incrementally.
type Model struct {
	topk map[string]*TopK
	// recentK bounds the history prefix used in prediction; a Model
	// snapshot for a batch baseline typically uses the full history.
	minSimilarity float64
}

// Snapshot captures the current similar-items tables as a static model.
func (cf *ItemCF) Snapshot() *Model {
	m := &Model{topk: make(map[string]*TopK, len(cf.topk)), minSimilarity: cf.cfg.MinSimilarity}
	for item, t := range cf.topk {
		m.topk[item] = t.Clone()
	}
	return m
}

// SimilarItems returns up to n entries of item's similar-items list in
// the snapshot.
func (m *Model) SimilarItems(item string, n int) []ScoredItem {
	t, ok := m.topk[item]
	if !ok {
		return nil
	}
	return t.Items(n)
}

// Recommend scores candidates with Eq. 2 against the provided user
// history (item -> rating). Unlike ItemCF.Recommend it has no recency
// information: the whole history participates, which is exactly how the
// periodically-refreshed baseline behaves.
func (m *Model) Recommend(history map[string]float64, opts RecommendOptions) []ScoredItem {
	if opts.N <= 0 {
		opts.N = 10
	}
	type acc struct{ num, den float64 }
	cand := make(map[string]*acc)
	// Deterministic iteration: accumulation order affects floating-point
	// sums, and reproducible experiments need identical rankings.
	items := make([]string, 0, len(history))
	for item := range history {
		items = append(items, item)
	}
	sort.Strings(items)
	for _, item := range items {
		rating := history[item]
		t, ok := m.topk[item]
		if !ok {
			continue
		}
		for _, s := range t.Items(0) {
			if s.Score < m.minSimilarity {
				continue
			}
			if _, rated := history[s.Item]; rated {
				continue
			}
			if opts.Exclude[s.Item] {
				continue
			}
			a := cand[s.Item]
			if a == nil {
				a = &acc{}
				cand[s.Item] = a
			}
			a.num += s.Score * rating
			a.den += s.Score
		}
	}
	out := make([]ScoredItem, 0, len(cand))
	for item, a := range cand {
		if a.den <= 0 {
			continue
		}
		score := a.num / a.den
		if opts.RankBySum {
			score = a.num
		}
		out = append(out, ScoredItem{Item: item, Score: score})
	}
	return TopNScored(out, opts.N)
}
