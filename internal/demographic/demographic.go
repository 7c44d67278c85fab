// Package demographic implements TencentRec's demographic-based (DB)
// algorithm and its data-sparsity machinery (§4.2).
//
// Users are clustered into demographic groups by their properties
// ("gender, age and education"); the user-item matrix of a group is far
// denser than the global matrix (Fig. 5), and each group's hot items
// serve as recommendations for users the other algorithms cannot help —
// new users, inactive users, or queries where CF candidates are too weak
// (§4.3's real-time complement). Users with no known properties fall
// back to the global group, as in §6.4: "For the user who does not have
// the information like gender or age, we will use the global demographic
// group".
package demographic

import (
	"sort"
	"strings"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/window"
)

// Profile carries the demographic properties the paper clusters on.
// Empty fields are unknown.
type Profile struct {
	Gender    string
	AgeGroup  string // e.g. "20-30"
	Education string
	Region    string
}

// GlobalGroup is the group key of users with no usable properties.
const GlobalGroup = "global"

// GroupBy selects which properties form the group key.
type GroupBy struct {
	Gender    bool
	Age       bool
	Education bool
	Region    bool
}

// DefaultGroupBy clusters on gender and age, the combination used in the
// paper's CTR query example.
func DefaultGroupBy() GroupBy { return GroupBy{Gender: true, Age: true} }

// Key derives the group key for a profile; profiles with none of the
// selected properties map to GlobalGroup.
func (g GroupBy) Key(p Profile) string {
	var parts []string
	if g.Gender && p.Gender != "" {
		parts = append(parts, "g="+p.Gender)
	}
	if g.Age && p.AgeGroup != "" {
		parts = append(parts, "a="+p.AgeGroup)
	}
	if g.Education && p.Education != "" {
		parts = append(parts, "e="+p.Education)
	}
	if g.Region && p.Region != "" {
		parts = append(parts, "r="+p.Region)
	}
	if len(parts) == 0 {
		return GlobalGroup
	}
	return strings.Join(parts, "|")
}

// Config parameterizes the DB engine.
type Config struct {
	// Weights maps action types to interest weights; nil selects
	// core.DefaultWeights.
	Weights map[core.ActionType]float64
	// GroupBy selects the clustering properties. Zero value clusters
	// everything into the global group; use DefaultGroupBy for the
	// paper's gender×age clustering.
	GroupBy GroupBy
	// HotK is the length of each group's hot-items list. Default 50.
	HotK int
	// WindowSessions and SessionDuration window the popularity counts,
	// making the hot lists real-time (the "real-time DB algorithm
	// results" of §4.3). Zero disables windowing.
	WindowSessions  int
	SessionDuration time.Duration
}

func (c Config) withDefaults() Config {
	if c.Weights == nil {
		c.Weights = core.DefaultWeights()
	}
	if c.HotK <= 0 {
		c.HotK = 50
	}
	if c.WindowSessions > 0 && c.SessionDuration <= 0 {
		c.SessionDuration = time.Hour
	}
	return c
}

// groupStats tracks one demographic group's item popularity.
type groupStats struct {
	counts map[string]*window.Counter
	hot    *core.TopK
}

// Engine is the demographic-based recommender.
// It is not safe for concurrent use.
type Engine struct {
	cfg      Config
	clock    window.Clock
	profiles map[string]Profile
	groups   map[string]*groupStats
}

// NewEngine returns an empty DB engine.
func NewEngine(cfg Config) *Engine {
	c := cfg.withDefaults()
	return &Engine{
		cfg:      c,
		clock:    window.Clock{Session: c.SessionDuration},
		profiles: make(map[string]Profile),
		groups:   make(map[string]*groupStats),
	}
}

// SetProfile registers a user's demographic properties.
func (e *Engine) SetProfile(user string, p Profile) { e.profiles[user] = p }

// GroupOf returns the group key the engine files this user under.
func (e *Engine) GroupOf(user string) string {
	return e.cfg.GroupBy.Key(e.profiles[user])
}

func (e *Engine) group(key string) *groupStats {
	g, ok := e.groups[key]
	if !ok {
		g = &groupStats{counts: make(map[string]*window.Counter), hot: core.NewTopK(e.cfg.HotK)}
		e.groups[key] = g
	}
	return g
}

// Observe accumulates one action into the user's group popularity counts
// (and always into the global group, which backs unknown users).
func (e *Engine) Observe(a core.Action) {
	w, ok := e.cfg.Weights[a.Type]
	if !ok || w <= 0 {
		return
	}
	session := e.clock.SessionOf(a.Time)
	keys := []string{e.GroupOf(a.User)}
	if keys[0] != GlobalGroup {
		keys = append(keys, GlobalGroup)
	}
	for _, key := range keys {
		g := e.group(key)
		c, ok := g.counts[a.Item]
		if !ok {
			c = window.NewCounter(e.cfg.WindowSessions)
			g.counts[a.Item] = c
		}
		c.Add(session, w)
		g.hot.Update(a.Item, c.Sum(session))
	}
}

// HotItems returns the n hottest items for the user's demographic group,
// falling back to the global group when the user's group has no data.
// now refreshes windowed scores so expired sessions stop counting.
func (e *Engine) HotItems(user string, now time.Time, n int) []core.ScoredItem {
	key := e.GroupOf(user)
	out := e.hotFor(key, now, n)
	if len(out) == 0 && key != GlobalGroup {
		out = e.hotFor(GlobalGroup, now, n)
	}
	return out
}

func (e *Engine) hotFor(key string, now time.Time, n int) []core.ScoredItem {
	g, ok := e.groups[key]
	if !ok {
		return nil
	}
	session := e.clock.SessionOf(now)
	// Refresh the windowed score of every list member; expired entries
	// fall to zero and are dropped.
	for _, s := range g.hot.Items(0) {
		cur := g.counts[s.Item].Sum(session)
		if cur <= 0 {
			g.hot.Remove(s.Item)
		} else if cur != s.Score {
			g.hot.Update(s.Item, cur)
		}
	}
	items := g.hot.Items(n)
	out := make([]core.ScoredItem, len(items))
	copy(out, items)
	return out
}

// MatrixDensity quantifies Fig. 5's sparsity argument: given the set of
// observed (user, item) interaction pairs and the engine's profiles, it
// returns the density of the global user-item matrix and the mean
// density across per-group matrices. Density is |interactions| /
// (|users| × |items|) within the (sub)matrix.
func (e *Engine) MatrixDensity(interactions map[[2]string]bool) (global float64, groupMean float64) {
	users := make(map[string]bool)
	items := make(map[string]bool)
	type cell struct {
		users map[string]bool
		items map[string]bool
		n     int
	}
	cells := make(map[string]*cell)
	for ui := range interactions {
		u, it := ui[0], ui[1]
		users[u] = true
		items[it] = true
		key := e.GroupOf(u)
		c, ok := cells[key]
		if !ok {
			c = &cell{users: make(map[string]bool), items: make(map[string]bool)}
			cells[key] = c
		}
		c.users[u] = true
		c.items[it] = true
		c.n++
	}
	if len(users) == 0 || len(items) == 0 {
		return 0, 0
	}
	global = float64(len(interactions)) / (float64(len(users)) * float64(len(items)))
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		c := cells[k]
		sum += float64(c.n) / (float64(len(c.users)) * float64(len(c.items)))
	}
	groupMean = sum / float64(len(cells))
	return global, groupMean
}
