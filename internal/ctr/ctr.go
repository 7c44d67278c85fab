// Package ctr implements TencentRec's situational CTR algorithm (§4, §5.1),
// deployed for advertisement recommendation in QQ (§6.2).
//
// The engine keeps sliding-window impression and click counts per item
// across configurable situation dimensions — the paper's motivating query
// is "During last ten seconds, what is the CTR of an advertisement among
// the male users in Beijing, whose age is from twenty to thirty" (§1),
// a four-dimension combination of region, age, gender and advertisement.
// Counts are maintained per (item, situation) cell for every configured
// dimension subset (cuboid), so both broad and narrow situations answer
// in O(1). Prediction smooths the empirical CTR with a Beta prior and
// backs off from narrow to broad situations when data is thin.
package ctr

import (
	"sort"
	"strings"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/window"
)

// Context carries the situation dimensions of one impression or click.
// Empty fields are unknown.
type Context struct {
	Region   string
	Gender   string
	AgeGroup string
	// Position is the placement slot, one of the CTR factors the paper
	// names ("from the advertisement's picture to its placement
	// position").
	Position string
}

// Dim names one situation dimension.
type Dim string

// The supported situation dimensions.
const (
	DimRegion   Dim = "region"
	DimGender   Dim = "gender"
	DimAge      Dim = "age"
	DimPosition Dim = "position"
)

func (c Context) value(d Dim) string {
	switch d {
	case DimRegion:
		return c.Region
	case DimGender:
		return c.Gender
	case DimAge:
		return c.AgeGroup
	case DimPosition:
		return c.Position
	}
	return ""
}

// Cuboid is one dimension subset counts are materialized for.
// The empty cuboid aggregates everything (global CTR per item).
type Cuboid []Dim

// Key renders the situation cell key of ctx under this cuboid.
// Unknown dimension values render as "*".
func (cb Cuboid) Key(ctx Context) string {
	if len(cb) == 0 {
		return ""
	}
	parts := make([]string, len(cb))
	for i, d := range cb {
		v := ctx.value(d)
		if v == "" {
			v = "*"
		}
		parts[i] = string(d) + "=" + v
	}
	return strings.Join(parts, "|")
}

// Config parameterizes the CTR engine.
type Config struct {
	// Cuboids are the dimension subsets to materialize, broadest first;
	// prediction backs off from the last (narrowest) to the first.
	// Nil selects DefaultCuboids.
	Cuboids []Cuboid
	// WindowSessions and SessionDuration window the counts. The
	// defaults (10 sessions of 1s) answer "during last ten seconds".
	WindowSessions  int
	SessionDuration time.Duration
	// PriorClicks and PriorImpressions are the Beta-prior pseudo-counts
	// for smoothing. Defaults 1 and 20 (a 5% prior CTR).
	PriorClicks      float64
	PriorImpressions float64
	// MinImpressions is the windowed impression mass below which
	// prediction backs off to a broader cuboid. Default 20.
	MinImpressions float64
}

// DefaultCuboids returns the dimension subsets materialized when none are
// configured, broadest first: {}, {gender,age}, {region,gender,age} — the
// paper's query shape. The engine, the topology's CtrStoreBolt and its
// serving reads all default to this one list.
func DefaultCuboids() []Cuboid {
	return []Cuboid{{}, {DimGender, DimAge}, {DimRegion, DimGender, DimAge}}
}

func (c Config) withDefaults() Config {
	if c.Cuboids == nil {
		c.Cuboids = DefaultCuboids()
	}
	if c.WindowSessions == 0 {
		c.WindowSessions = 10
	}
	if c.WindowSessions > 0 && c.SessionDuration <= 0 {
		c.SessionDuration = time.Second
	}
	if c.PriorClicks <= 0 {
		c.PriorClicks = 1
	}
	if c.PriorImpressions <= 0 {
		c.PriorImpressions = 20
	}
	if c.MinImpressions <= 0 {
		c.MinImpressions = 20
	}
	return c
}

// cell is one (item, situation) counter pair.
type cell struct {
	impressions *window.Counter
	clicks      *window.Counter
}

// Engine is the situational CTR predictor.
// It is not safe for concurrent use.
type Engine struct {
	cfg   Config
	clock window.Clock
	// cells[cuboidIndex][situationKey][item]
	cells []map[string]map[string]*cell
	items map[string]bool
}

// NewEngine returns an empty CTR engine.
func NewEngine(cfg Config) *Engine {
	c := cfg.withDefaults()
	e := &Engine{
		cfg:   c,
		clock: window.Clock{Session: c.SessionDuration},
		cells: make([]map[string]map[string]*cell, len(c.Cuboids)),
		items: make(map[string]bool),
	}
	for i := range e.cells {
		e.cells[i] = make(map[string]map[string]*cell)
	}
	return e
}

func (e *Engine) cell(cuboid int, sit, item string) *cell {
	m := e.cells[cuboid][sit]
	if m == nil {
		m = make(map[string]*cell)
		e.cells[cuboid][sit] = m
	}
	c := m[item]
	if c == nil {
		c = &cell{
			impressions: window.NewCounter(e.cfg.WindowSessions),
			clicks:      window.NewCounter(e.cfg.WindowSessions),
		}
		m[item] = c
	}
	return c
}

// Impression records that item was shown in ctx at tm.
func (e *Engine) Impression(item string, ctx Context, tm time.Time) {
	e.items[item] = true
	s := e.clock.SessionOf(tm)
	for i, cb := range e.cfg.Cuboids {
		e.cell(i, cb.Key(ctx), item).impressions.Add(s, 1)
	}
}

// Click records that item was clicked in ctx at tm.
func (e *Engine) Click(item string, ctx Context, tm time.Time) {
	e.items[item] = true
	s := e.clock.SessionOf(tm)
	for i, cb := range e.cfg.Cuboids {
		e.cell(i, cb.Key(ctx), item).clicks.Add(s, 1)
	}
}

// Covers reports whether the context has a value for every dimension of
// the cuboid, i.e. whether the cuboid's cell key is fully specified.
func (c Context) Covers(cb Cuboid) bool {
	for _, d := range cb {
		if c.value(d) == "" {
			return false
		}
	}
	return true
}

// Predict estimates the item's CTR in ctx with Beta-prior smoothing,
// backing off from the narrowest cuboid to broader ones until the
// impression mass reaches MinImpressions.
func (e *Engine) Predict(item string, ctx Context, now time.Time) float64 {
	s := e.clock.SessionOf(now)
	var clicks, imps float64
	for i := len(e.cfg.Cuboids) - 1; i >= 0; i-- {
		cb := e.cfg.Cuboids[i]
		if !ctx.Covers(cb) {
			continue
		}
		m := e.cells[i][cb.Key(ctx)]
		if m == nil {
			continue
		}
		c := m[item]
		if c == nil {
			continue
		}
		clicks = c.clicks.Sum(s)
		imps = c.impressions.Sum(s)
		if imps >= e.cfg.MinImpressions {
			break // enough evidence at this granularity
		}
	}
	return (clicks + e.cfg.PriorClicks) / (imps + e.cfg.PriorImpressions)
}

// TopItems ranks all known items by predicted CTR in ctx.
func (e *Engine) TopItems(ctx Context, now time.Time, n int) []core.ScoredItem {
	out := make([]core.ScoredItem, 0, len(e.items))
	for item := range e.items {
		out = append(out, core.ScoredItem{Item: item, Score: e.Predict(item, ctx, now)})
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

// Snapshot freezes the per-item global CTR into a static ranking model —
// the periodically-refreshed baseline for the QQ experiment.
type Snapshot struct {
	scores map[string]float64
}

// Snapshot captures current global predicted CTRs.
func (e *Engine) Snapshot(now time.Time) *Snapshot {
	s := &Snapshot{scores: make(map[string]float64, len(e.items))}
	for item := range e.items {
		s.scores[item] = e.Predict(item, Context{}, now)
	}
	return s
}

// TopItems ranks the frozen scores; ctx is ignored — the baseline is not
// situational, which is part of why it loses.
func (s *Snapshot) TopItems(_ Context, n int) []core.ScoredItem {
	out := make([]core.ScoredItem, 0, len(s.scores))
	for item, sc := range s.scores {
		out = append(out, core.ScoredItem{Item: item, Score: sc})
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
