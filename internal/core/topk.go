package core

// TopK maintains an item's similar-items list: the K most similar items
// with their scores, sorted descending. Its threshold — the minimum
// similarity in a full list — feeds the pruning test of Algorithm 1
// ("Get threshold t of i's similar-items list").
type TopK struct {
	k     int
	items []ScoredItem // sorted by Score descending
	pos   map[string]int
}

// NewTopK returns an empty list bounded at k entries.
func NewTopK(k int) *TopK {
	return &TopK{k: k, pos: make(map[string]int)}
}

// Update inserts or reorders item with its new score, evicting the
// weakest entry when the list overflows. Scores may move up or down.
func (t *TopK) Update(item string, score float64) {
	if i, ok := t.pos[item]; ok {
		t.items[i].Score = score
		t.fix(i)
		return
	}
	if len(t.items) < t.k {
		t.items = append(t.items, ScoredItem{Item: item, Score: score})
		t.pos[item] = len(t.items) - 1
		t.fix(len(t.items) - 1)
		return
	}
	// Full: only enters if it beats the current minimum.
	last := len(t.items) - 1
	if score <= t.items[last].Score {
		return
	}
	delete(t.pos, t.items[last].Item)
	t.items[last] = ScoredItem{Item: item, Score: score}
	t.pos[item] = last
	t.fix(last)
}

// Remove deletes item from the list if present.
func (t *TopK) Remove(item string) {
	i, ok := t.pos[item]
	if !ok {
		return
	}
	last := len(t.items) - 1
	t.items[i] = t.items[last]
	t.pos[t.items[i].Item] = i
	t.items = t.items[:last]
	delete(t.pos, item)
	if i < len(t.items) {
		t.fix(i)
	}
}

// fix restores descending order around index i after a score change.
func (t *TopK) fix(i int) {
	// Bubble up.
	for i > 0 && t.items[i].Score > t.items[i-1].Score {
		t.swap(i, i-1)
		i--
	}
	// Bubble down.
	for i+1 < len(t.items) && t.items[i].Score < t.items[i+1].Score {
		t.swap(i, i+1)
		i++
	}
}

func (t *TopK) swap(i, j int) {
	t.items[i], t.items[j] = t.items[j], t.items[i]
	t.pos[t.items[i].Item] = i
	t.pos[t.items[j].Item] = j
}

// Threshold returns the minimum similarity required to enter the list:
// the weakest member's score when full, zero otherwise (an unfull list
// accepts anything, so nothing can be pruned against it).
func (t *TopK) Threshold() float64 {
	if len(t.items) < t.k {
		return 0
	}
	return t.items[len(t.items)-1].Score
}

// Items returns up to n entries in descending score order.
// n <= 0 returns all.
func (t *TopK) Items(n int) []ScoredItem {
	if n <= 0 || n > len(t.items) {
		n = len(t.items)
	}
	out := make([]ScoredItem, n)
	copy(out, t.items[:n])
	return out
}

// Clone returns a deep copy, used when snapshotting a model.
func (t *TopK) Clone() *TopK {
	cp := &TopK{k: t.k, items: append([]ScoredItem(nil), t.items...), pos: make(map[string]int, len(t.pos))}
	for k, v := range t.pos {
		cp.pos[k] = v
	}
	return cp
}
