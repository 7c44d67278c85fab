// Package tencentrec is a complete, self-contained reproduction of
// "TencentRec: Real-time Stream Recommendation in Practice"
// (Huang, Cui, Zhang, Jiang, Xu — SIGMOD 2015): a general real-time
// stream recommender system addressing the "big", "real-time" and
// "accurate" challenges.
//
// The package exposes two usage levels:
//
//   - the algorithm engines (Recommender and friends) for embedding the
//     paper's practical item-based CF — implicit-feedback weighting,
//     incremental similarity (Eq. 5/8), Hoeffding pruning (Eq. 9),
//     sliding windows (Eq. 10) and real-time personalized filtering —
//     directly into an application;
//
//   - System, a full in-process deployment of Fig. 9: a TDAccess broker
//     ingesting the action stream, the Storm-analog stream topology of
//     Fig. 6 computing statistics and models, a TDStore cluster holding
//     all status data, and the serving engine answering recommendation
//     queries.
//
// Everything underneath — the stream engine, the pub/sub layer, the
// replicated key-value store with its MDB and LDB engines, the five
// recommendation algorithms (CF, CB, DB, AR, situational CTR), and the
// evaluation harness regenerating the paper's Table 1 and Figures
// 10-14 — is implemented from scratch on the Go standard library.
package tencentrec

import (
	"tencentrec/internal/core"
	"tencentrec/internal/ctr"
	"tencentrec/internal/demographic"
	"tencentrec/internal/topology"
)

// Core algorithm surface, aliased from the internal packages so library
// users get the complete documented types without reaching into
// internal paths.
type (
	// Action is one user behaviour tuple <user, item, action, time>.
	Action = core.Action
	// ActionType classifies a behaviour (browse, click, purchase, ...).
	ActionType = core.ActionType
	// ScoredItem is an item with a recommendation or similarity score.
	ScoredItem = core.ScoredItem
	// RecommenderConfig parameterizes the practical item-based CF engine.
	RecommenderConfig = core.Config
	// Recommender is the incremental item-based CF engine of §4.1.
	Recommender = core.ItemCF
	// RecommendOptions tune a single recommendation query.
	RecommendOptions = core.RecommendOptions
	// Profile carries a user's demographic properties.
	Profile = demographic.Profile
	// AdContext carries the situation dimensions for CTR queries.
	AdContext = ctr.Context
	// RawAction is one user behaviour published into a System.
	RawAction = topology.RawAction
	// Params configures a System's topology (weights, windows, pruning,
	// combiner flushing, caching, filters).
	Params = topology.Params
	// Features selects a System's algorithm chains.
	Features = topology.Features
	// Parallelism sets per-unit task counts in a System's topology.
	Parallelism = topology.Parallelism
)

// The standard behaviour types.
const (
	ActionBrowse   = core.ActionBrowse
	ActionClick    = core.ActionClick
	ActionRead     = core.ActionRead
	ActionShare    = core.ActionShare
	ActionComment  = core.ActionComment
	ActionPurchase = core.ActionPurchase
	ActionPlay     = core.ActionPlay
)

// NewRecommender returns the practical item-based CF engine for direct
// embedding. For the full pipeline (ingestion, distributed statistics,
// durable state, serving) use Open instead.
func NewRecommender(cfg RecommenderConfig) *Recommender {
	return core.NewItemCF(cfg)
}

// DefaultWeights returns the paper's example implicit-feedback scale
// (browse ≈ one star, purchase ≈ three stars).
func DefaultWeights() map[ActionType]float64 { return core.DefaultWeights() }
