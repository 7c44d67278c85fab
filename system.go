package tencentrec

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tencentrec/internal/core"
	"tencentrec/internal/ctr"
	"tencentrec/internal/obsv"
	"tencentrec/internal/serving"
	"tencentrec/internal/stream"
	"tencentrec/internal/tdaccess"
	"tencentrec/internal/tdstore"
	"tencentrec/internal/tdstore/engine"
	"tencentrec/internal/tdstore/engine/ldb"
	"tencentrec/internal/topology"
)

// consumerGroup is the topology's TDAccess consumer group; checkpoint
// manifests anchor to its committed offsets.
const consumerGroup = "tencentrec"

// actionTopic is the TDAccess topic actions are published to.
const actionTopic = "user-actions"

// storeEngineFactory maps a StoreEngine name to a per-instance engine
// constructor. Durable engines get one directory per instance,
// dir/inst-<n>. When checkpoint is non-empty it names a committed
// checkpoint: each instance directory is wiped and re-seeded from its
// snapshot there before its engine opens. Without one, an LDB instance
// that already holds keys is refused: the consumer group's offsets die
// with the process, so the spout would replay the whole action log into
// it and apply it twice, and emptying it instead would lose the item
// profiles AddItem wrote, which the log does not hold.
func storeEngineFactory(name, dir, checkpoint string) (func(tdstore.InstanceID) (engine.Engine, error), error) {
	switch name {
	case "", "mdb":
		return nil, nil // cluster default: in-memory MDB
	case "ldb":
		return func(inst tdstore.InstanceID) (engine.Engine, error) {
			instDir := tdstore.InstanceDir(dir, int(inst))
			if checkpoint != "" {
				if err := ldb.Restore(tdstore.InstanceDir(checkpoint, int(inst)), instDir); err != nil {
					return nil, err
				}
				return ldb.Open(instDir, ldb.Options{})
			}
			eng, err := ldb.Open(instDir, ldb.Options{})
			if err != nil {
				return nil, err
			}
			n, err := eng.Len()
			if err == nil && n > 0 {
				err = fmt.Errorf("tencentrec: store directory %s already holds state and there is no "+
					"committed checkpoint to resume from: empty StoreDir to rebuild the state from "+
					"the action log (item profiles from AddItem are not in it)", dir)
			}
			if err != nil {
				eng.Close()
				return nil, err
			}
			return eng, nil
		}, nil
	}
	return nil, fmt.Errorf("tencentrec: unknown store engine %q (mdb or ldb)", name)
}

// committedCheckpoint reads the manifest of the checkpoint in dir, nil
// when dir holds no committed one. A checkpoint that does not fit the
// store, or lacks an instance directory its manifest counts, is an
// error: restoring it would lose that instance's keys.
func committedCheckpoint(dir string) (*tdstore.CheckpointManifest, error) {
	m, err := tdstore.LoadCheckpoint(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if m.Instances != tdstore.DefaultInstances {
		return nil, fmt.Errorf("checkpoint has %d instances, the store %d", m.Instances, tdstore.DefaultInstances)
	}
	for inst := range m.Instances {
		if _, err := os.Stat(tdstore.InstanceDir(dir, inst)); err != nil {
			return nil, fmt.Errorf("checkpoint instance %d: %w", inst, err)
		}
	}
	return m, nil
}

// SystemConfig configures a full TencentRec deployment.
type SystemConfig struct {
	// DataDir is the root directory for TDAccess partition logs.
	// Required.
	DataDir string
	// StoreEngine selects the TDStore storage engine: "mdb" (in-memory,
	// default) or "ldb" (log-structured, durable). The durable engine
	// persists under StoreDir.
	StoreEngine string
	// StoreDir roots the durable engines' files, instance n's in
	// StoreDir/inst-<n>. Default DataDir/tdstore. Without a committed
	// checkpoint in CheckpointDir, Open refuses an ldb StoreDir that
	// already holds state: the spout would replay the whole action log
	// into it.
	StoreDir string
	// CheckpointDir is where System.Checkpoint writes offset-anchored
	// store snapshots. Default DataDir/checkpoint. On the ldb engine,
	// Open cold-starts from a committed checkpoint there: the instance
	// directories are re-seeded from the snapshot, the consumer group's
	// committed offsets are replanted from the manifest, and the
	// topology replays only the tail past them. Without one the spout
	// replays the whole log.
	CheckpointDir string
	// Params configures the algorithms. Zero value uses defaults.
	Params Params
	// Features selects the algorithm chains. Zero value enables CF
	// (plus the always-on DB complement).
	Features Features
	// Parallelism sets per-unit task counts. Zero fields mean 1.
	Parallelism Parallelism
	// TraceEvery samples one tuple trace per this many spout emissions
	// for the latency waterfall (Traces, /debug/traces). 0 uses the
	// default (one per 1024); negative disables tracing entirely.
	// Metrics are always on — only tracing is rate-controlled.
	TraceEvery int
	// ServingCacheTTL bounds how stale a cached query result may be.
	// 0 uses the default (serving.DefaultCacheTTL); negative disables the
	// result cache.
	ServingCacheTTL time.Duration
	// ServingNegativeTTL bounds how long a known-absent key is served
	// from the cache. 0 uses the default (serving.DefaultNegativeTTL).
	ServingNegativeTTL time.Duration
}

func (c SystemConfig) withDefaults() SystemConfig {
	if !c.Features.CF && !c.Features.AR && !c.Features.CB && !c.Features.Ctr {
		c.Features.CF = true
	}
	if c.StoreDir == "" {
		c.StoreDir = filepath.Join(c.DataDir, "tdstore")
	}
	if c.CheckpointDir == "" {
		c.CheckpointDir = filepath.Join(c.DataDir, "checkpoint")
	}
	return c
}

// System is a running TencentRec deployment (Fig. 9): TDAccess feeding
// the stream topology, TDStore holding status data, and the serving
// engine answering queries. Build one with Open; stop it with Close.
type System struct {
	cfg      SystemConfig
	broker   *tdaccess.Broker
	cluster  *tdstore.Cluster
	client   *tdstore.Client
	producer *tdaccess.Producer
	topo     *stream.Topology
	running  *stream.RunningTopology
	serving  *topology.Serving
	reader   *serving.Reader
	registry *obsv.Registry
	tracer   *obsv.Tracer // nil when TraceEvery < 0

	// replayed counts spout emissions this run. After a checkpoint
	// restore it is exactly the replayed tail
	// (tencentrec_replayed_tail_records).
	replayed *atomic.Int64
}

// Open builds and starts a System. The topology runs until Close.
func Open(cfg SystemConfig) (*System, error) {
	c := cfg.withDefaults()
	broker, err := tdaccess.NewBroker(tdaccess.Options{Dir: c.DataDir})
	if err != nil {
		return nil, fmt.Errorf("tencentrec: open broker: %w", err)
	}
	// An ldb store cold-starts from the committed checkpoint if there is
	// one: the store is re-seeded from the snapshot and the broker's
	// committed offsets are replanted from the frontier, so the spout
	// replays only the tail.
	var manifest *tdstore.CheckpointManifest
	restoreDir := ""
	if c.StoreEngine == "ldb" {
		if manifest, err = committedCheckpoint(c.CheckpointDir); err != nil {
			broker.Close()
			return nil, fmt.Errorf("tencentrec: restore: %w", err)
		}
		if manifest != nil {
			restoreDir = c.CheckpointDir
		}
	}
	engineFactory, err := storeEngineFactory(c.StoreEngine, c.StoreDir, restoreDir)
	if err != nil {
		broker.Close()
		return nil, err
	}
	cluster, err := tdstore.NewCluster(tdstore.Options{Engine: engineFactory})
	if err != nil {
		broker.Close()
		return nil, fmt.Errorf("tencentrec: open store: %w", err)
	}
	if manifest != nil {
		for _, fe := range manifest.Frontier {
			if err := broker.SeedCommittedOffsets(fe.Group, fe.Topic, fe.Offsets); err != nil {
				broker.Close()
				cluster.Close()
				return nil, fmt.Errorf("tencentrec: restore offsets: %w", err)
			}
		}
	}
	client, err := cluster.NewClient()
	if err != nil {
		broker.Close()
		cluster.Close()
		return nil, fmt.Errorf("tencentrec: store client: %w", err)
	}
	// One registry observes every layer (Fig. 9's monitor): the stream
	// engine, the TDStore client, the TDAccess broker and — via Handler —
	// the serving front end. Instrument before any traffic flows.
	registry := obsv.NewRegistry()
	client.Instrument(registry)
	broker.Instrument(registry)
	cluster.Instrument(registry)
	replayed := new(atomic.Int64)
	if manifest != nil {
		registry.GaugeFunc("tencentrec_replayed_tail_records",
			"Records replayed past the checkpoint frontier on this cold start.",
			replayed.Load)
	}
	var tracer *obsv.Tracer
	if c.TraceEvery >= 0 {
		tracer = obsv.NewTracer(c.TraceEvery, obsv.DefaultTraceRing)
	}
	// The serving tier fronts query reads with a decoded-result cache;
	// a query's misses go to the store in one BatchGet.
	reader := serving.NewReader(client, serving.Config{
		CacheTTL:    c.ServingCacheTTL,
		NegativeTTL: c.ServingNegativeTTL,
	})
	reader.Instrument(registry)
	eng := topology.NewServing(client, c.Params).WithReader(reader)
	state := servedState{client, reader}
	spout := topology.NewTDAccessSpout(topology.TDAccessSpoutConfig{
		Broker:  broker,
		Topic:   actionTopic,
		Group:   consumerGroup,
		Emitted: replayed,
	})
	topo, err := topology.NewBuilder("tencentrec", spout, state, c.Params).
		WithFeatures(c.Features).
		WithParallelism(c.Parallelism).
		WithObservability(registry, tracer).
		Build()
	if err != nil {
		broker.Close()
		cluster.Close()
		return nil, fmt.Errorf("tencentrec: build topology: %w", err)
	}
	s := &System{
		cfg:      c,
		broker:   broker,
		cluster:  cluster,
		client:   client,
		producer: broker.NewProducer(),
		topo:     topo,
		serving:  eng,
		reader:   reader,
		registry: registry,
		tracer:   tracer,
		replayed: replayed,
	}
	s.running = topo.Submit()
	return s, nil
}

// servedState is the topology's State: the store client, with every key
// the topology writes (similar-items lists, user histories, hot lists;
// counters too, which the tier never holds) dropped from the serving
// tier's negative entries once the write has returned. A cached "absent"
// is then never older than the write that made it wrong, so a new item or
// user shows a tick round after its first action, not a negative TTL
// after that.
type servedState struct {
	*tdstore.Client
	reader *serving.Reader
}

func (s servedState) PutHashed(key string, h uint64, value []byte) error {
	err := s.Client.PutHashed(key, h, value)
	s.reader.DropNegative(key)
	return err
}

func (s servedState) BatchPutHashed(keys []string, hs []uint64, values [][]byte) error {
	err := s.Client.BatchPutHashed(keys, hs, values)
	s.reader.DropNegative(keys...)
	return err
}

// Checkpoint drains the pipeline and writes an offset-anchored store
// snapshot to CheckpointDir: every instance's engine state plus the
// consumer group's committed offsets at the quiesce point. A later Open
// on the same directories cold-starts from it and replays only the
// records published after the frontier. Requires a snapshot-capable
// store engine (ldb).
func (s *System) Checkpoint(timeout time.Duration) error {
	if err := s.Drain(timeout); err != nil {
		return err
	}
	// Drain alone does not stop the spout: a record consumed after the
	// frontier read but before the engine snapshot would land in the
	// snapshot yet above the frontier, so a restore would replay and
	// double-apply it. Quiesce parks the spouts and drains in-flight
	// tuples for the duration, so the frontier and the engine state are
	// captured at one consistent point; actions published meanwhile stay
	// in the broker above the frontier and replay cleanly.
	return s.running.Quiesce(func() error {
		parts := s.broker.TopicPartitions(actionTopic)
		offsets := make([]int64, parts)
		for p := 0; p < parts; p++ {
			off, err := s.broker.CommittedOffset(consumerGroup, actionTopic, p)
			if err != nil {
				return fmt.Errorf("tencentrec: checkpoint frontier: %w", err)
			}
			offsets[p] = off
		}
		return s.cluster.Checkpoint(s.cfg.CheckpointDir, []tdstore.FrontierEntry{
			{Group: consumerGroup, Topic: actionTopic, Offsets: offsets},
		})
	})
}

// ReplayedTailRecords reports how many records the spout has consumed
// this run. On a system opened over a committed checkpoint this is the
// tail replayed past the checkpoint frontier.
func (s *System) ReplayedTailRecords() int64 { return s.replayed.Load() }

// Publish sends one action into the pipeline, keyed by user so per-user
// order is preserved.
func (s *System) Publish(a RawAction) error {
	_, _, err := s.producer.Send(actionTopic, a.User, topology.EncodeAction(a))
	return err
}

// AddItem registers an item's content metadata for the CB chain and the
// serving engine.
func (s *System) AddItem(id string, terms []string, published time.Time) error {
	return topology.PutItemProfile(s.client, id, terms, published)
}

// Drain blocks until every action in the broker when it is called has
// been consumed and fully processed, or the timeout elapses: after it
// returns, queries see everything published before the call. Use it in
// tests and batch loads; live deployments simply query whenever,
// accepting sub-second staleness.
//
// "Consumed" is read from the broker, not from this process's Publish
// calls: every partition's committed offset for the topology's group has
// reached that partition's end offset as it stood at the call. A System
// restored from a checkpoint therefore waits for the tail past the
// checkpoint frontier, though it has published nothing itself.
//
// "Processed" is one ordered tick round over a drained pipeline: once the
// spout has emitted everything in the log, the topology is quiesced
// (spouts parked, in-flight count zero), every combiner bolt is ticked in
// topological order — itemCount's flush lands before pairCount's scores
// read it — and each flush's consequences (sim tuples, write-behind list
// flushes) drain before the next fires. A store write that failed on the
// way is not waited for: it shows in the component's errors column of
// Metrics, as it always has, and the bolt retries it with its next input.
func (s *System) Drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	parts := s.broker.TopicPartitions(actionTopic)
	end := make([]int64, parts)
	for p := range end {
		off, err := s.broker.EndOffset(actionTopic, p)
		if err != nil {
			return fmt.Errorf("tencentrec: drain: %w", err)
		}
		end[p] = off
	}
	for {
		behind := int64(0)
		for p, e := range end {
			off, err := s.broker.CommittedOffset(consumerGroup, actionTopic, p)
			if err != nil {
				return fmt.Errorf("tencentrec: drain: %w", err)
			}
			behind += max(e-off, 0)
		}
		if behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tencentrec: drain timed out with %d records not consumed, %d tuples in flight",
				behind, s.running.InFlight())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.running.Quiesce(func() error { return nil }); err != nil {
		return err
	}
	// Drained means "queries now see everything published", so the
	// serving tier must not hand out results cached before the drain.
	s.reader.Invalidate()
	return nil
}

// Recommend serves the user's CF slate with the DB complement.
func (s *System) Recommend(user string, n int) ([]ScoredItem, error) {
	return s.serving.RecommendCF(user, time.Now(), n, nil)
}

// RecommendAt is Recommend with an explicit query time (replay and
// simulation use).
func (s *System) RecommendAt(user string, now time.Time, n int) ([]ScoredItem, error) {
	return s.serving.RecommendCF(user, now, n, nil)
}

// SimilarItems returns an item's similar-items list.
func (s *System) SimilarItems(item string, n int) ([]ScoredItem, error) {
	return s.serving.SimilarItems(item, n)
}

// HotItems returns the demographic hot list backing the user.
func (s *System) HotItems(user string, n int) ([]ScoredItem, error) {
	return s.serving.HotItems(user, n)
}

// TopAds returns the ad ranking for a situation (the CTR chain).
func (s *System) TopAds(cx AdContext, n int) ([]ScoredItem, error) {
	return s.serving.TopAds(cx, n)
}

// RecommendCB scores candidate items against the user's content profile
// (the CB chain).
func (s *System) RecommendCB(user string, candidates []string, n int) ([]ScoredItem, error) {
	return s.serving.RecommendCB(user, candidates, n, nil)
}

// ARRecommend serves association-rule consequents (the AR chain).
func (s *System) ARRecommend(user string, n int) ([]ScoredItem, error) {
	return s.serving.ARRecommend(user, time.Now(), n)
}

// Metrics returns a snapshot of the topology metrics (the monitor view).
func (s *System) Metrics() *stream.MetricsSnapshot { return s.running.Metrics() }

// Registry exposes the system-wide metrics registry: stream, TDStore,
// TDAccess and serving instruments, exportable via WritePrometheus or
// WriteJSON.
func (s *System) Registry() *obsv.Registry { return s.registry }

// Traces exports the sampled tuple traces (oldest first), each a span
// chain across the topology stages. Empty when TraceEvery < 0 or no
// sampled tuple has been executed yet.
func (s *System) Traces() []obsv.TraceSnapshot {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Traces()
}

// WriteTraceWaterfall renders the sampled traces as per-stage latency
// waterfalls (queue wait and execution time per stage).
func (s *System) WriteTraceWaterfall(w io.Writer) {
	obsv.WriteWaterfall(w, s.Traces())
}

// Rebalance changes the live parallelism of one bolt without stopping
// the pipeline or losing in-flight tuples — the Storm `rebalance`
// operation (§3.1). Spouts cannot be rebalanced.
func (s *System) Rebalance(component string, parallelism int) error {
	return s.running.Rebalance(component, parallelism)
}

// Parallelism reports a component's current live task count, which a
// Rebalance may have changed since Open. 0 for unknown components.
func (s *System) Parallelism(component string) int {
	return s.running.Parallelism(component)
}

// Close stops the topology and releases the broker and store.
func (s *System) Close() error {
	s.running.Stop()
	s.running.Wait()
	var first error
	if err := s.broker.Close(); err != nil {
		first = err
	}
	if err := s.cluster.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// NewAdContext is a convenience constructor for TopAds queries.
func NewAdContext(region, gender, ageGroup string) AdContext {
	return ctr.Context{Region: region, Gender: gender, AgeGroup: ageGroup}
}

// NewAction builds an Action for the embedded Recommender.
func NewAction(user, item string, t ActionType, at time.Time) Action {
	return core.Action{User: user, Item: item, Type: t, Time: at}
}

// SuggestParallelism implements the paper's first item of future work
// (§7): it calibrates per-unit service demands by replaying a sample of
// real traffic and returns task counts sized for the target ingest rate.
// maxTasks bounds any unit (0 = the machine's core count).
func SuggestParallelism(sample []RawAction, p Params, feats Features, targetRate float64, maxTasks int) (Parallelism, error) {
	return topology.SuggestParallelism(sample, p, feats, targetRate, maxTasks)
}
