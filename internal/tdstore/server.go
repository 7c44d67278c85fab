package tdstore

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"tencentrec/internal/tdstore/engine"
)

// ErrServerDown is returned when an operation reaches a data server that
// has failed. Clients react by refreshing the route table and retrying.
var ErrServerDown = errors.New("tdstore: data server is down")

// ErrNotHost is returned when an operation reaches a data server that no
// longer hosts the target instance (a stale route).
var ErrNotHost = errors.New("tdstore: server is not the host of this instance")

// opKind enumerates replicated mutations.
type opKind int

const (
	opPut opKind = iota
	opDelete
)

// syncOp is one mutation queued for host→slave synchronization.
type syncOp struct {
	kind     opKind
	instance InstanceID
	key      string
	value    []byte
}

// hosting is a DataServer's immutable topology snapshot: which instances
// are resident, which of them this server hosts, where their slaves are,
// and whether the server is down. The hot path (hostGet, hostMutate,
// batchGet, hostBatchPut) does a single atomic load of the current
// snapshot and never takes a server-wide lock; topology changes
// (add/promote/setDown) build a new snapshot and swap it in atomically.
type hosting struct {
	down      bool
	instances map[InstanceID]engine.Engine // all instances resident here
	hostOf    map[InstanceID]bool          // instances this server serves
	slaves    map[InstanceID][]*DataServer // instance -> slave servers
	// writeMu holds one mutex per resident instance, giving hostMutate
	// its exclusive read-modify-write window (the Incr path) without a
	// server-wide lock. The mutex pointers are carried across snapshot
	// swaps, so an instance's writers always contend on the same lock.
	writeMu map[InstanceID]*instanceLock
}

// instanceLock is an instance's write mutex and the scratch a batched
// write fills under it.
type instanceLock struct {
	sync.Mutex
	run runScratch
}

// maxRunScratch is the largest run a runScratch keeps its slices for: a
// larger run's are let go after it, so a burst does not pin them.
const maxRunScratch = 1 << 10

// runScratch holds the keys and values of one run of puts, handed to an
// engine's PutBatch.
type runScratch struct {
	keys   []string
	values [][]byte
}

func (r *runScratch) add(key string, value []byte) {
	r.keys = append(r.keys, key)
	r.values = append(r.values, value)
}

// reset empties the scratch for the next run, dropping the keys and
// values the last one pinned.
func (r *runScratch) reset() {
	if cap(r.keys) > maxRunScratch {
		r.keys, r.values = nil, nil
		return
	}
	clear(r.keys)
	clear(r.values)
	r.keys, r.values = r.keys[:0], r.values[:0]
}

// clone returns a snapshot copy whose maps may be mutated before the
// swap. Slave slices and write-mutex pointers are shared: mutators must
// replace a slaves slice, never edit one in place.
func (h *hosting) clone() *hosting {
	return &hosting{
		down:      h.down,
		instances: maps.Clone(h.instances),
		hostOf:    maps.Clone(h.hostOf),
		slaves:    maps.Clone(h.slaves),
		writeMu:   maps.Clone(h.writeMu),
	}
}

// DataServer stores data instances, serving as host for some and slave
// for others (§3.3's fine-grained backup).
type DataServer struct {
	// ID names the server, e.g. "ds-0".
	ID string

	// topoMu serializes snapshot swaps; readers never take it.
	topoMu  sync.Mutex
	hosting atomic.Pointer[hosting]

	syncMu    sync.Mutex
	syncQueue []syncOp
	// workCond wakes the sync loop when ops arrive or stop is requested;
	// idleCond wakes WaitSync waiters when lag returns to zero.
	workCond *sync.Cond
	idleCond *sync.Cond
	syncStop bool
	syncDone chan struct{}
	// lag counts mutations applied at the host but not yet at slaves.
	lag int

	// batchPutCalls/batchPutKeys count successful hostBatchPut
	// applications, observed by retry tests to prove a partial batch
	// failure re-sends only the failed sub-batch.
	batchPutCalls atomic.Int64
	batchPutKeys  atomic.Int64
	// replicaErrors counts replicated mutations this server's engines
	// failed to apply, a batch counting once: such a copy lags its host
	// until a revive's catch-up rewrites it.
	replicaErrors atomic.Int64
}

func newDataServer(id string) *DataServer {
	ds := &DataServer{
		ID:       id,
		syncDone: make(chan struct{}),
	}
	ds.hosting.Store(&hosting{
		instances: make(map[InstanceID]engine.Engine),
		hostOf:    make(map[InstanceID]bool),
		slaves:    make(map[InstanceID][]*DataServer),
		writeMu:   make(map[InstanceID]*instanceLock),
	})
	ds.workCond = sync.NewCond(&ds.syncMu)
	ds.idleCond = sync.NewCond(&ds.syncMu)
	go ds.syncLoop()
	return ds
}

// mutateHosting applies fn to a copy of the current snapshot and swaps
// the result in. All topology changes funnel through here.
func (ds *DataServer) mutateHosting(fn func(h *hosting)) {
	ds.topoMu.Lock()
	defer ds.topoMu.Unlock()
	next := ds.hosting.Load().clone()
	fn(next)
	ds.hosting.Store(next)
}

// addInstance materializes an instance (and its write mutex) on this
// server.
func (ds *DataServer) addInstance(inst InstanceID, eng engine.Engine) {
	ds.mutateHosting(func(h *hosting) {
		h.instances[inst] = eng
		h.writeMu[inst] = &instanceLock{}
	})
}

// setHost makes this server the serving host of inst with the given
// slaves.
func (ds *DataServer) setHost(inst InstanceID, slaves []*DataServer) {
	ds.mutateHosting(func(h *hosting) {
		h.hostOf[inst] = true
		h.slaves[inst] = append([]*DataServer(nil), slaves...)
	})
}

// clearHost strips this server's serving role for inst (it stays
// resident as a plain replica).
func (ds *DataServer) clearHost(inst InstanceID) {
	ds.mutateHosting(func(h *hosting) {
		delete(h.hostOf, inst)
		delete(h.slaves, inst)
	})
}

// addSlave registers s as an additional slave of inst on this host.
func (ds *DataServer) addSlave(inst InstanceID, s *DataServer) {
	ds.mutateHosting(func(h *hosting) {
		h.slaves[inst] = append(append([]*DataServer(nil), h.slaves[inst]...), s)
	})
}

// engineOf returns the resident engine for inst, if any.
func (ds *DataServer) engineOf(inst InstanceID) (engine.Engine, bool) {
	h := ds.hosting.Load()
	eng, ok := h.instances[inst]
	return eng, ok
}

// residentInstances lists every instance stored on this server.
func (ds *DataServer) residentInstances() []InstanceID {
	h := ds.hosting.Load()
	out := make([]InstanceID, 0, len(h.instances))
	for inst := range h.instances {
		out = append(out, inst)
	}
	return out
}

// fenceWrites acquires and releases every per-instance write mutex.
// After it returns, every write that observed the previous snapshot has
// finished applying AND enqueued its replication ops (hostMutate and
// hostBatchPut enqueue before releasing the instance lock), so
// setDown-then-fence-then-WaitSync leaves the slaves with everything the
// host ever acknowledged.
func (ds *DataServer) fenceWrites() {
	h := ds.hosting.Load()
	for _, mu := range h.writeMu {
		mu.Lock()
		mu.Unlock() //nolint:staticcheck // empty critical section is the fence
	}
}

// withInstanceFenced runs fn holding inst's write mutex on this server:
// no write applies to the instance here while fn runs, and every write
// that did has queued its replication ops.
func (ds *DataServer) withInstanceFenced(inst InstanceID, fn func() error) error {
	mu := ds.hosting.Load().writeMu[inst]
	if mu == nil {
		return fmt.Errorf("tdstore: server %s lacks instance %d", ds.ID, inst)
	}
	mu.Lock()
	defer mu.Unlock()
	return fn()
}

// syncLoop applies queued mutations to slave replicas in the background,
// reproducing the paper's "the slave data server will update its data when
// idle" without involving the config server. Each drained batch is applied
// under a single hosting-snapshot load, grouped by instance, and each slave
// gets one PutBatch per run of an instance's puts (replicate). An op's
// value is the slice the host's engine keeps, and each slave's engine
// keeps that same slice: a replica costs no copy.
func (ds *DataServer) syncLoop() {
	defer close(ds.syncDone)
	var sc syncScratch
	for {
		ds.syncMu.Lock()
		for len(ds.syncQueue) == 0 && !ds.syncStop {
			ds.workCond.Wait()
		}
		if ds.syncStop && len(ds.syncQueue) == 0 {
			ds.syncMu.Unlock()
			return
		}
		batch := ds.syncQueue
		ds.syncQueue = sc.spare
		ds.syncMu.Unlock()

		sc.replicate(ds.hosting.Load(), batch)
		sc.done(batch)

		ds.syncMu.Lock()
		ds.lag -= len(batch)
		if ds.lag == 0 {
			ds.idleCond.Broadcast()
		}
		ds.syncMu.Unlock()
	}
}

const (
	// maxSpareOps bounds the queue buffer a sync loop keeps between drains
	// while bursts come (56 bytes an op, 1.8 MB at most), and
	// maxQuietSpareOps once they have stopped.
	maxSpareOps      = 1 << 15
	maxQuietSpareOps = 1 << 10
	// quietDrains drains in a row of at most quietOps ops mean the bursts
	// have stopped: what they grew is let go. Most drains hold a handful
	// of ops.
	quietDrains = 256
	quietOps    = 64
)

// syncScratch is what a sync loop keeps from one drain for the next, so
// that the queue is not regrown from nothing every time. A burst grows
// it; it is kept while bursts keep coming, and dropped for the collector
// after quietDrains small drains in a row, so a store whose writes go on
// in small drains soon keeps only a small one.
type syncScratch struct {
	// spare is the queue buffer the writers fill next: the loop and the
	// writers trade two buffers, and this is the one the last drain
	// emptied.
	spare []syncOp
	// run holds the run of puts replicate hands the slaves.
	run runScratch
	// quiet counts the drains in a row of at most quietOps ops, up to
	// quietDrains.
	quiet int
}

// done readies the scratch for the next drain once batch has been
// applied.
func (sc *syncScratch) done(batch []syncOp) {
	clear(batch) // drop the keys and values it pinned
	limit := maxSpareOps
	switch {
	case len(batch) > quietOps:
		sc.quiet = 0
	case sc.quiet < quietDrains:
		sc.quiet++
	default:
		limit = maxQuietSpareOps
	}
	sc.spare = nil
	if cap(batch) <= limit {
		sc.spare = batch[:0]
	}
}

// replicate applies a drain to the slaves of its instances. The ops are
// grouped by instance, keeping queue order within each, which is all the
// order replicas need: a key lives in exactly one instance, and queue
// order is host apply order. Each run of an instance's puts reaches each
// slave as one PutBatch, and a delete applies alone, between the runs
// around it.
func (sc *syncScratch) replicate(h *hosting, ops []syncOp) {
	slices.SortStableFunc(ops, func(a, b syncOp) int { return cmp.Compare(a.instance, b.instance) })
	for len(ops) > 0 {
		op, n := ops[0], 1
		if op.kind == opPut {
			for n < len(ops) && ops[n].instance == op.instance && ops[n].kind == opPut {
				n++
			}
			for _, o := range ops[:n] {
				sc.run.add(o.key, o.value)
			}
		}
		for _, slave := range h.slaves[op.instance] {
			slave.applyReplica(op, sc.run.keys, sc.run.values)
		}
		sc.run.reset()
		ops = ops[n:]
	}
}

// applyReplica applies replicated mutations of op's instance to this
// server's copy of it: op itself if it is a delete, and for a put the run
// it heads, values[i] under keys[i], as one batch. A failure is counted in
// replicaErrors. Replication proceeds even while a server is marked down
// only if the engine still exists; a down server drops updates, which the
// promotion path tolerates because the new host already has the data it
// acknowledged.
func (ds *DataServer) applyReplica(op syncOp, keys []string, values [][]byte) {
	h := ds.hosting.Load()
	eng, ok := h.instances[op.instance]
	if !ok || h.down {
		return
	}
	var err error
	switch op.kind {
	case opPut:
		err = eng.PutBatch(keys, values)
	case opDelete:
		err = eng.Delete(op.key)
	}
	if err != nil {
		ds.replicaErrors.Add(1)
	}
}

// enqueueSync schedules one mutation for slave catch-up.
func (ds *DataServer) enqueueSync(op syncOp) {
	ds.syncMu.Lock()
	ds.syncQueue = append(ds.syncQueue, op)
	ds.lag++
	ds.workCond.Signal()
	ds.syncMu.Unlock()
}

// WaitSync blocks until every mutation acknowledged by this host has been
// applied to its slaves. Tests and orderly shutdowns use it; production
// reads tolerate replica lag as the paper's design does. The wait parks
// on a condition variable the sync loop broadcasts when lag reaches
// zero — no busy-wait.
func (ds *DataServer) WaitSync() {
	ds.syncMu.Lock()
	for ds.lag != 0 {
		ds.idleCond.Wait()
	}
	ds.syncMu.Unlock()
}

// hostGet serves a read for an instance this server hosts: one atomic
// snapshot load, then straight to the engine.
func (ds *DataServer) hostGet(instance InstanceID, key string) ([]byte, bool, error) {
	h := ds.hosting.Load()
	if h.down {
		return nil, false, ErrServerDown
	}
	if !h.hostOf[instance] {
		return nil, false, ErrNotHost
	}
	return h.instances[instance].Get(key)
}

// hostMutate serves a write for an instance this server hosts and queues
// the mutation fn reports (stamped with the instance) for replication.
// fn runs with exclusive access to the instance (a per-instance mutex,
// not a server-wide one), enabling atomic read-modify-write (the Incr
// path). The snapshot is re-loaded after the lock is taken so a
// concurrent setDown or promotion is honored, and the replication op is
// enqueued before the lock is released so fenceWrites+WaitSync observes
// it.
func (ds *DataServer) hostMutate(instance InstanceID, fn func(eng engine.Engine) (syncOp, error)) error {
	h := ds.hosting.Load()
	if h.down {
		return ErrServerDown
	}
	mu := h.writeMu[instance]
	if mu == nil {
		return ErrNotHost
	}
	mu.Lock()
	defer mu.Unlock()
	h = ds.hosting.Load()
	if h.down {
		return ErrServerDown
	}
	if !h.hostOf[instance] {
		return ErrNotHost
	}
	op, err := fn(h.instances[instance])
	if err != nil {
		return err
	}
	op.instance = instance
	ds.enqueueSync(op)
	return nil
}

// batchGet serves a batched read of instances this server hosts, filling
// vals/found at each item's position. The liveness and residency checks
// run against one snapshot load — no lock and no per-call allocation on
// this path.
func (ds *DataServer) batchGet(items []batchItem, vals [][]byte, found []bool) error {
	h := ds.hosting.Load()
	if h.down {
		return ErrServerDown
	}
	for _, it := range items {
		if !h.hostOf[it.inst] {
			return ErrNotHost
		}
	}
	for _, it := range items {
		v, ok, err := h.instances[it.inst].Get(it.key)
		if err != nil {
			return err
		}
		vals[it.pos], found[it.pos] = v, ok
	}
	return nil
}

// hostBatchPut serves a batched write of values[it.pos] under each
// item's key. Each run of consecutive items of one instance is applied
// under that instance's write mutex with its replication ops enqueued
// before the mutex is released (the same fence contract as hostMutate).
// attempt hands a server its items as one run per instance, each in batch
// order, so a key written twice in a batch keeps its later value, on the
// host and on the slaves. Writers of different instances proceed in
// parallel. Nothing is allocated here for runs of up to maxRunScratch
// items: the engines keep values[it.pos] as they are, and so does the
// replication queue.
func (ds *DataServer) hostBatchPut(items []batchItem, values [][]byte) error {
	h := ds.hosting.Load()
	if h.down {
		return ErrServerDown
	}
	for i, it := range items {
		if (i == 0 || it.inst != items[i-1].inst) && !h.hostOf[it.inst] {
			return ErrNotHost
		}
	}
	for rest := items; len(rest) > 0; {
		n := 1
		for n < len(rest) && rest[n].inst == rest[0].inst {
			n++
		}
		if err := ds.putRun(rest[:n], values); err != nil {
			// Already-applied runs will be re-applied on retry; Put is
			// idempotent so partial application is safe.
			return err
		}
		rest = rest[n:]
	}
	ds.batchPutCalls.Add(1)
	ds.batchPutKeys.Add(int64(len(items)))
	return nil
}

// putRun applies a run of one instance's items of a batched write under
// its write mutex, as one PutBatch filled in the instance's scratch, and
// appends their replication ops to the queue before release.
func (ds *DataServer) putRun(run []batchItem, values [][]byte) error {
	inst := run[0].inst
	h := ds.hosting.Load()
	w := h.writeMu[inst]
	if w == nil {
		return ErrNotHost
	}
	w.Lock()
	defer w.Unlock()
	h = ds.hosting.Load()
	if h.down {
		return ErrServerDown
	}
	if !h.hostOf[inst] {
		return ErrNotHost
	}
	for _, it := range run {
		w.run.add(it.key, values[it.pos])
	}
	err := h.instances[inst].PutBatch(w.run.keys, w.run.values)
	w.run.reset()
	if err != nil {
		return err
	}
	ds.syncMu.Lock()
	ds.syncQueue = slices.Grow(ds.syncQueue, len(run))
	for _, it := range run {
		ds.syncQueue = append(ds.syncQueue, syncOp{kind: opPut, instance: inst, key: it.key, value: values[it.pos]})
	}
	ds.lag += len(run)
	ds.workCond.Signal()
	ds.syncMu.Unlock()
	return nil
}

// setDown marks the server failed or revived. Failure paths that need
// the host's acknowledged writes fully replicated must follow with
// fenceWrites and WaitSync (see Cluster.KillDataServer).
func (ds *DataServer) setDown(down bool) {
	ds.mutateHosting(func(h *hosting) { h.down = down })
}

// isDown reports the failure flag.
func (ds *DataServer) isDown() bool {
	return ds.hosting.Load().down
}

// stop terminates the sync loop. Used by Cluster.Close.
func (ds *DataServer) stop() {
	ds.syncMu.Lock()
	ds.syncStop = true
	ds.workCond.Broadcast()
	ds.syncMu.Unlock()
	<-ds.syncDone
}

// InstanceCount returns how many instances are resident (host or slave).
func (ds *DataServer) InstanceCount() int {
	return len(ds.hosting.Load().instances)
}

// HostedCount returns how many instances this server currently serves.
func (ds *DataServer) HostedCount() int {
	h := ds.hosting.Load()
	n := 0
	for _, hosted := range h.hostOf {
		if hosted {
			n++
		}
	}
	return n
}

func (ds *DataServer) String() string { return fmt.Sprintf("DataServer(%s)", ds.ID) }
