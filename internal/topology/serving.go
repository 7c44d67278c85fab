package topology

import (
	"math"
	"sort"
	"strconv"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/ctr"
	"tencentrec/internal/demographic"
	"tencentrec/internal/serving"
)

// Serving is the recommender engine of Fig. 9: it "accepts user queries
// preprocessed by the front end and utilizes the computing results in
// TDStore to generate the recommendation results". It is read-only over
// the state the topology maintains and is safe for concurrent use when
// the underlying State is.
type Serving struct {
	st State
	p  Params
	rd *serving.Reader // the serving tier its list and history reads go through
}

// NewServing returns a query engine over the topology's state, reading it
// through an uncached serving tier.
func NewServing(st State, p Params) *Serving {
	return &Serving{st: st, p: p.withDefaults(), rd: serving.NewReader(st, serving.Config{CacheTTL: -1})}
}

// WithReader routes the engine's reads of top-K lists and user
// histories through rd, typically a serving tier with a decoded-result
// cache with TTL invalidation and negative caching, whose misses go to
// the store in one batch per read. Results may then be up to the
// reader's cache TTL stale. Returns s.
func (s *Serving) WithReader(rd *serving.Reader) *Serving {
	s.rd = rd
	return s
}

// decodeListValue and decodeHistoryValue adapt the codec to the serving
// tier's cacheable-any contract. Cached values are shared across hits:
// the read path never mutates a decoded list or history.
func decodeListValue(b []byte) (any, error)    { return decodeList(b) }
func decodeHistoryValue(b []byte) (any, error) { return decodeHistory(b) }

// SimilarItems returns an item's current similar-items list.
func (s *Serving) SimilarItems(item string, n int) ([]core.ScoredItem, error) {
	return s.readList(prefixSimilar+item, n)
}

func (s *Serving) readList(key string, n int) ([]core.ScoredItem, error) {
	v, ok, err := s.rd.Get(key, decodeListValue)
	if err != nil || !ok {
		return nil, err
	}
	list := v.(storedList)
	if n > 0 && len(list) > n {
		list = list[:n]
	}
	return list, nil
}

// readLists fetches several stored lists in one batched read; absent
// keys yield nil entries. Each list is truncated to n when n > 0.
func (s *Serving) readLists(keys []string, n int) ([][]core.ScoredItem, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	vs, found, err := s.rd.GetBatch(keys, decodeListValue)
	if err != nil {
		return nil, err
	}
	out := make([][]core.ScoredItem, len(keys))
	for i := range keys {
		if !found[i] {
			continue
		}
		list := vs[i].(storedList)
		if n > 0 && len(list) > n {
			list = list[:n]
		}
		out[i] = list
	}
	return out, nil
}

// history loads a user's stored behavior history.
func (s *Serving) history(user string) (storedHistory, error) {
	v, ok, err := s.rd.Get(prefixUserHistory+user, decodeHistoryValue)
	if err != nil || !ok {
		return nil, err
	}
	return v.(storedHistory), nil
}

// recentRef orders recentItems selection: time descending, item
// ascending on ties (the same tie-break core/itemcf.go uses).
type recentRef struct {
	item   string
	rating float64
	ts     int64
}

func recentBefore(a, b recentRef) bool {
	if a.ts != b.ts {
		return a.ts > b.ts
	}
	return a.item < b.item
}

// recentItems returns the user's RecentK most recent rated items,
// selected with a bounded min-heap over the RecentK slots instead of
// sorting the whole history.
func (s *Serving) recentItems(hist storedHistory, now time.Time) []core.ScoredItem {
	k := s.p.RecentK
	refs := make([]recentRef, 0, min(len(hist), k))
	for item, r := range hist {
		if s.p.LinkedTime > 0 && now.UnixNano()-r.TS > int64(s.p.LinkedTime) {
			continue
		}
		ref := recentRef{item, r.Rating, r.TS}
		if len(refs) < k {
			refs = append(refs, ref)
			if len(refs) == k {
				for i := k/2 - 1; i >= 0; i-- {
					siftOldest(refs, i)
				}
			}
			continue
		}
		if k > 0 && recentBefore(ref, refs[0]) {
			refs[0] = ref
			siftOldest(refs, 0)
		}
	}
	sort.Slice(refs, func(i, j int) bool { return recentBefore(refs[i], refs[j]) })
	out := make([]core.ScoredItem, len(refs))
	for i, r := range refs {
		out[i] = core.ScoredItem{Item: r.item, Score: r.rating}
	}
	return out
}

// siftOldest keeps the oldest retained reference at the heap root so it
// is the one displaced by a more recent candidate.
func siftOldest(h []recentRef, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		w := l
		if r := l + 1; r < len(h) && recentBefore(h[l], h[r]) {
			w = r
		}
		if !recentBefore(h[i], h[w]) {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// RecommendCF serves an item-based CF slate: Eq. 2 over the user's
// recent-K items' similar lists, complemented by the user's demographic
// hot list when CF candidates are missing or too weak (§4.3).
func (s *Serving) RecommendCF(user string, now time.Time, n int, exclude map[string]bool) ([]core.ScoredItem, error) {
	if n <= 0 {
		n = 10
	}
	// Hot users are asked for the same slate many times per TTL window;
	// cache the assembled answer, not just its ingredients. Results are
	// keyed without now — within the TTL the serving clock is effectively
	// constant — and only for the plain (no exclusions) query shape.
	qkey, gen := "", uint64(0)
	if exclude == nil {
		qkey = "cf|" + user + "|" + strconv.Itoa(n)
		v, g, ok := s.rd.GetResult(qkey)
		if ok {
			return v.([]core.ScoredItem), nil
		}
		gen = g
	}
	hist, err := s.history(user)
	if err != nil {
		return nil, err
	}
	type acc struct{ num, den float64 }
	cand := make(map[string]*acc)
	// All recent items' similar lists come back in one batched read.
	recents := s.recentItems(hist, now)
	keys := make([]string, len(recents))
	for i, r := range recents {
		keys[i] = prefixSimilar + r.Item
	}
	lists, err := s.readLists(keys, 0)
	if err != nil {
		return nil, err
	}
	for ri, recent := range recents {
		for _, sc := range lists[ri] {
			if sc.Score < s.p.MinSimilarity {
				continue
			}
			if _, rated := hist[sc.Item]; rated {
				continue
			}
			if exclude[sc.Item] {
				continue
			}
			a := cand[sc.Item]
			if a == nil {
				a = &acc{}
				cand[sc.Item] = a
			}
			a.num += sc.Score * recent.Score
			a.den += sc.Score
		}
	}
	out := make([]core.ScoredItem, 0, len(cand))
	for item, a := range cand {
		if a.den <= 0 {
			continue
		}
		out = append(out, core.ScoredItem{Item: item, Score: a.num / a.den})
	}
	out = core.TopNScored(out, n)
	if len(out) < n {
		hot, err := s.HotItems(user, n)
		if err != nil {
			return out, err
		}
		have := make(map[string]bool, len(out))
		for _, sc := range out {
			have[sc.Item] = true
		}
		for _, sc := range hot {
			if len(out) >= n {
				break
			}
			if have[sc.Item] || exclude[sc.Item] {
				continue
			}
			if _, rated := hist[sc.Item]; rated {
				continue
			}
			out = append(out, sc)
			have[sc.Item] = true
		}
	}
	if qkey != "" {
		s.rd.PutResult(qkey, out, gen)
	}
	return out, nil
}

// HotItems returns the user's demographic group hot list, falling back
// to the global group.
func (s *Serving) HotItems(user string, n int) ([]core.ScoredItem, error) {
	group := s.p.groupOf(user)
	list, err := s.readList(prefixHotList+group, n)
	if err != nil {
		return nil, err
	}
	if len(list) == 0 && group != demographic.GlobalGroup {
		return s.readList(prefixHotList+demographic.GlobalGroup, n)
	}
	return list, nil
}

// ARRecommend serves association-rule consequents for the user's recent
// items, ranked by best confidence.
func (s *Serving) ARRecommend(user string, now time.Time, n int) ([]core.ScoredItem, error) {
	if n <= 0 {
		n = 10
	}
	qkey := "ar|" + user + "|" + strconv.Itoa(n)
	v, gen, ok := s.rd.GetResult(qkey)
	if ok {
		return v.([]core.ScoredItem), nil
	}
	hist, err := s.history(user)
	if err != nil {
		return nil, err
	}
	best := make(map[string]float64)
	// All recent items' rule lists come back in one batched read.
	recents := s.recentItems(hist, now)
	keys := make([]string, len(recents))
	for i, r := range recents {
		keys[i] = prefixARList + r.Item
	}
	lists, err := s.readLists(keys, 0)
	if err != nil {
		return nil, err
	}
	for ri := range recents {
		for _, r := range lists[ri] {
			if _, rated := hist[r.Item]; rated {
				continue
			}
			if r.Score > best[r.Item] {
				best[r.Item] = r.Score
			}
		}
	}
	out := make([]core.ScoredItem, 0, len(best))
	for item, conf := range best {
		out = append(out, core.ScoredItem{Item: item, Score: conf})
	}
	out = core.TopNScored(out, n)
	s.rd.PutResult(qkey, out, gen)
	return out, nil
}

// TopAds returns the ad ranking for a situation, trying the narrowest
// configured cuboid the context covers first.
func (s *Serving) TopAds(cx ctr.Context, n int) ([]core.ScoredItem, error) {
	cuboids := s.p.CtrCuboids
	if cuboids == nil {
		cuboids = []ctr.Cuboid{{}, {ctr.DimGender, ctr.DimAge}, {ctr.DimRegion, ctr.DimGender, ctr.DimAge}}
	}
	// Collect covered cuboids narrowest-first, fetch every candidate
	// ranking in one batched read, and serve the first non-empty one.
	var keys []string
	for i := len(cuboids) - 1; i >= 0; i-- {
		if cx.Covers(cuboids[i]) {
			keys = append(keys, prefixCtrTop+cuboids[i].Key(cx))
		}
	}
	lists, err := s.readLists(keys, n)
	if err != nil {
		return nil, err
	}
	for _, list := range lists {
		if len(list) > 0 {
			return list, nil
		}
	}
	return nil, nil
}

// RecommendCB scores the given candidate items against the user's stored
// content profile. The candidate pool (e.g. today's fresh news) comes
// from the application, as in production news serving.
func (s *Serving) RecommendCB(user string, candidates []string, n int, exclude map[string]bool) ([]core.ScoredItem, error) {
	if n <= 0 {
		n = 10
	}
	// One batched read covers the user's profile and every candidate's
	// content vector.
	pool := make([]string, 0, len(candidates))
	for _, id := range candidates {
		if !exclude[id] {
			pool = append(pool, id)
		}
	}
	keys := make([]string, 0, len(pool)+1)
	keys = append(keys, prefixUserProfile+user)
	for _, id := range pool {
		keys = append(keys, prefixItemInfo+id)
	}
	vals, found, err := s.st.BatchGet(keys)
	if err != nil {
		return nil, err
	}
	if !found[0] {
		return nil, nil // no profile learned yet
	}
	prof, err := decodeProfile(vals[0])
	if err != nil {
		return nil, err
	}
	out := make([]core.ScoredItem, 0, len(pool))
	for i, id := range pool {
		if !found[i+1] {
			continue
		}
		ip, err := decodeProfile(vals[i+1])
		if err != nil {
			return nil, err
		}
		var score float64
		for term, w := range ip.Weights {
			score += w * prof.Weights[term]
		}
		if score > 0 {
			out = append(out, core.ScoredItem{Item: id, Score: score})
		}
	}
	return core.TopNScored(out, n), nil
}

// PutItemProfile registers an item's content profile directly in state,
// exactly as the ItemInfo bolt would: the path applications use to
// register catalog metadata without routing it through the stream.
func PutItemProfile(st State, id string, terms []string, published time.Time) error {
	counts := make(map[string]float64)
	for _, t := range terms {
		counts[t]++
	}
	var norm float64
	for _, c := range counts {
		norm += c * c
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for t := range counts {
			counts[t] /= norm
		}
	}
	return st.Put(prefixItemInfo+id, encodeProfile(storedProfile{Weights: counts, Published: published.UnixNano()}))
}

// UserRating exposes a user's current stored rating for an item.
func (s *Serving) UserRating(user, item string) (float64, error) {
	hist, err := s.history(user)
	if err != nil || hist == nil {
		return 0, err
	}
	return hist[item].Rating, nil
}
