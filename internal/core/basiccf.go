package core

import "sort"

// BatchCF is the classic batch item-based CF of §4.1.1 (Eq. 1): cosine
// similarity over the full rating matrix with product co-ratings,
// recomputed from scratch on every Train call. It serves two roles:
//
//   - the explicit-feedback comparator (StreamRec-style) for the
//     implicit-handling ablation — it treats whatever ratings it is
//     given as exact, with no max-weight/min-co-rating normalization;
//   - the incremental-vs-recompute cost ablation (§4.1.3).
type BatchCF struct {
	// TopK bounds each item's similar-items list. Default 20.
	TopK int

	ratings map[string]map[string]float64 // user -> item -> rating
}

// NewBatchCF returns an empty batch trainer.
func NewBatchCF(topK int) *BatchCF {
	if topK <= 0 {
		topK = 20
	}
	return &BatchCF{TopK: topK, ratings: make(map[string]map[string]float64)}
}

// Rate records an explicit rating, replacing any previous value.
func (b *BatchCF) Rate(user, item string, rating float64) {
	m, ok := b.ratings[user]
	if !ok {
		m = make(map[string]float64)
		b.ratings[user] = m
	}
	m[item] = rating
}

// Train computes all pairwise cosine similarities (Eq. 1) and returns a
// static model. Cost is O(Σ_u |I_u|²) — the work the incremental engine
// avoids re-doing per observation.
func (b *BatchCF) Train() *Model {
	dot := make(map[pairKey]float64)
	normSq := make(map[string]float64)
	for _, items := range b.ratings {
		// Deterministic pair enumeration is unnecessary for correctness
		// (sums commute), so iterate maps directly.
		list := make([]string, 0, len(items))
		for item := range items {
			list = append(list, item)
		}
		sort.Strings(list)
		for i, p := range list {
			rp := items[p]
			normSq[p] += rp * rp
			for _, q := range list[i+1:] {
				dot[makePair(p, q)] += rp * items[q]
			}
		}
	}
	m := &Model{topk: make(map[string]*TopK)}
	get := func(item string) *TopK {
		t, ok := m.topk[item]
		if !ok {
			t = NewTopK(b.TopK)
			m.topk[item] = t
		}
		return t
	}
	for key, d := range dot {
		sim := CosineSimilarity(d, normSq[key.a], normSq[key.b])
		if sim <= 0 {
			continue
		}
		get(key.a).Update(key.b, sim)
		get(key.b).Update(key.a, sim)
	}
	return m
}
