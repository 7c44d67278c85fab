package tdstore

import (
	"fmt"
	"sync"
	"time"

	"tencentrec/internal/statecodec"
	"tencentrec/internal/tdstore/engine"
)

// clientRetries bounds route-refresh retries before an operation fails.
const clientRetries = 6

// clientRetryBackoff paces operation retries while the cluster reacts to
// a data-server failure. A kill drains the dead host's replication queue
// before a slave is promoted, so there is a window where the route table
// still names the dead server; when a refresh returns an unchanged
// table, the client waits (doubling up to clientRetryMaxBackoff, ~12ms
// in total across the retry budget) instead of burning its attempts in
// microseconds.
const (
	clientRetryBackoff    = 250 * time.Microsecond
	clientRetryMaxBackoff = 4 * time.Millisecond
)

// batchItem is one key of a batched request, tagged with its data
// instance and its position in the caller's key, value and result
// slices.
type batchItem struct {
	inst InstanceID
	key  string
	pos  int
}

// serverGroup is the sub-batch of one request attempt bound for one data
// server, and that server's answer.
type serverGroup struct {
	id    string // the server's ID as the route names it
	ds    *DataServer
	items []batchItem
	err   error
}

// groupSend delivers one server's sub-batch and returns its answer.
type groupSend func(ds *DataServer, items []batchItem) error

func (g *serverGroup) dispatch(send groupSend) {
	if g.err == nil { // else the route named a server the cluster does not know
		g.err = send(g.ds, g.items)
	}
}

// runGroups sends every group in order, on the caller's goroutine.
func runGroups(groups []serverGroup, send groupSend) {
	for i := range groups {
		groups[i].dispatch(send)
	}
}

// routeRefreshRetries bounds how many times refreshRoute re-asks the
// config servers before giving up, with routeRefreshBackoff doubling up
// to routeRefreshMaxBackoff between attempts (~20ms worst case in
// total). A host/backup pair that is momentarily entirely down — e.g.
// mid-failover — therefore stalls operations briefly instead of failing
// them.
const (
	routeRefreshRetries    = 8
	routeRefreshBackoff    = 250 * time.Microsecond
	routeRefreshMaxBackoff = 4 * time.Millisecond
)

// Client provides keyed access to a TDStore cluster. It caches the route
// table and communicates "directly with the data servers located by the
// route table" (§3.3), refreshing the cache when a server fails or a
// stale route is detected. A Client is safe for concurrent use.
type Client struct {
	c *Cluster

	mu    sync.RWMutex
	route *RouteTable

	// ins is set by Instrument; nil on an uninstrumented client, in
	// which case operations skip all observability work.
	ins *clientInstruments
}

// NewClient returns a client with a freshly fetched route table.
func (c *Cluster) NewClient() (*Client, error) {
	rt, err := c.RouteTable()
	if err != nil {
		return nil, err
	}
	return &Client{c: c, route: rt}, nil
}

func (cl *Client) cachedRoute() *RouteTable {
	cl.mu.RLock()
	defer cl.mu.RUnlock()
	return cl.route
}

// refreshRoute re-fetches the route table, reporting whether the cached
// table actually advanced — callers use an unchanged table as the signal
// to back off before retrying.
func (cl *Client) refreshRoute() (advanced bool, err error) {
	var lastErr error
	backoff := routeRefreshBackoff
	for attempt := 0; attempt <= routeRefreshRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			if backoff *= 2; backoff > routeRefreshMaxBackoff {
				backoff = routeRefreshMaxBackoff
			}
		}
		if cl.ins != nil {
			cl.ins.refreshes.Inc()
		}
		rt, err := cl.c.RouteTable()
		if err != nil {
			lastErr = err
			continue
		}
		cl.mu.Lock()
		if rt.Version > cl.route.Version {
			cl.route = rt
			advanced = true
		}
		cl.mu.Unlock()
		return advanced, nil
	}
	return false, fmt.Errorf("tdstore: route refresh failed after %d attempts: %w", routeRefreshRetries+1, lastErr)
}

// retryPause refreshes the route after a retryable failure and, when the
// table has not advanced (the config server has not reacted yet), sleeps
// the current backoff. It returns the next backoff to use.
func (cl *Client) retryPause(backoff time.Duration) (time.Duration, error) {
	if cl.ins != nil {
		cl.ins.retries.Inc()
	}
	advanced, err := cl.refreshRoute()
	if err != nil {
		return backoff, err
	}
	if !advanced {
		time.Sleep(backoff)
		if backoff *= 2; backoff > clientRetryMaxBackoff {
			backoff = clientRetryMaxBackoff
		}
	}
	return backoff, nil
}

// hostFor resolves the current host server of key's instance.
func (cl *Client) hostFor(key string) (*DataServer, InstanceID, error) {
	rt := cl.cachedRoute()
	inst := rt.InstanceFor(key)
	ds, ok := cl.c.server(rt.Hosts[inst])
	if !ok {
		return nil, inst, fmt.Errorf("tdstore: route names unknown server %q", rt.Hosts[inst])
	}
	return ds, inst, nil
}

// retryable reports whether err warrants a route refresh and retry.
func retryable(err error) bool {
	return err == ErrServerDown || err == ErrNotHost
}

// single is the single-key request path: it runs fn against the host of
// key's instance, and on a retryable answer refreshes the route (backing
// off while the table has not advanced) and asks again, up to
// clientRetries times. Any other error returns at once.
func (cl *Client) single(what, key string, fn func(ds *DataServer, inst InstanceID) error) error {
	var lastErr error
	backoff := clientRetryBackoff
	for attempt := 0; attempt <= clientRetries; attempt++ {
		ds, inst, err := cl.hostFor(key)
		if err != nil {
			return err
		}
		if err = fn(ds, inst); err == nil || !retryable(err) {
			return err
		}
		lastErr = err
		if backoff, err = cl.retryPause(backoff); err != nil {
			return err
		}
	}
	return fmt.Errorf("tdstore: %s %q: retries exhausted: %w", what, key, lastErr)
}

// mutate runs fn on the host engine of key's instance through single.
func (cl *Client) mutate(what, key string, fn func(eng engine.Engine) (syncOp, error)) error {
	return cl.single(what, key, func(ds *DataServer, inst InstanceID) error {
		return ds.hostMutate(inst, fn)
	})
}

// Get returns the value stored under key.
func (cl *Client) Get(key string) (v []byte, ok bool, err error) {
	defer cl.observe(clientGet, cl.begin())
	err = cl.single("get", key, func(ds *DataServer, inst InstanceID) (err error) {
		v, ok, err = ds.hostGet(inst, key)
		return err
	})
	return v, ok, err
}

// Put stores value under key and replicates to the instance's slaves.
// The client builds the version's KV once, and that KV is the stored
// version: the host's engine keeps it, the replication queue carries it
// and every slave's engine keeps it too. The caller may reuse its buffer
// at once.
func (cl *Client) Put(key string, value []byte) error {
	defer cl.observe(clientPut, cl.begin())
	kv := engine.MakeKV(key, value)
	return cl.mutate("put", key, func(eng engine.Engine) (syncOp, error) {
		return syncOp{kv: kv}, eng.PutKV(kv)
	})
}

// Delete removes key.
func (cl *Client) Delete(key string) error {
	defer cl.observe(clientDelete, cl.begin())
	return cl.mutate("delete", key, func(eng engine.Engine) (syncOp, error) {
		return syncOp{key: key}, eng.Delete(key)
	})
}

// IncrFloat atomically adds delta to the float64 counter at key and
// returns the new value. Missing keys start at zero.
func (cl *Client) IncrFloat(key string, delta float64) (float64, error) {
	defer cl.observe(clientIncr, cl.begin())
	var out float64
	err := cl.mutate("incr", key, func(eng engine.Engine) (syncOp, error) {
		cur, ok, err := eng.Get(key)
		if err != nil {
			return syncOp{}, err
		}
		v := 0.0
		if ok {
			if v, err = statecodec.DecodeFloat(cur); err != nil {
				return syncOp{}, fmt.Errorf("tdstore: %w", err)
			}
		}
		v += delta
		out = v
		var enc [8]byte
		kv := engine.MakeKV(key, statecodec.AppendFloat(enc[:0], v))
		return syncOp{kv: kv}, eng.PutKV(kv)
	})
	return out, err
}

// maxStackInstances is the largest route whose per-instance counters
// attempt keeps on its stack; a route with more instances allocates them.
const maxStackInstances = 64

// attempt is one pass of the batched request path: it resolves the
// cached route once, groups the pending positions of keys by target
// server (the host of each key's instance), sends the groups one after
// another and collects the answers.
// pending lists the positions to send; nil means all of keys, a fresh
// batch. It returns the positions whose server gave a retryable answer
// together with that error; groups that succeeded are done and are never
// re-sent. Any other error is returned at once, with no positions.
//
// Grouping is a counting pass over the instances, which are a small dense
// range each bound for one server: one slice holds every item, a group is
// a contiguous part of it, and within a group each instance's items are a
// contiguous run in batch order, so hostBatchPut takes one mutex per
// instance and of two writes to one key the later wins. What it allocates
// (the items, the groups) does not depend on how many servers a batch
// spans.
func (cl *Client) attempt(keys []string, pending []int, send groupSend) ([]int, error) {
	n := len(pending)
	if pending == nil {
		n = len(keys)
	}
	if n == 0 {
		return nil, nil
	}
	position := func(j int) int {
		if pending == nil {
			return j
		}
		return pending[j]
	}
	rt := cl.cachedRoute()
	// Per instance: how many keys it holds, later where its run starts;
	// and 1 + the index of its group, 0 for an instance with no keys.
	var stack [2 * maxStackInstances]int32
	scratch := stack[:]
	if rt.NumInstances > maxStackInstances {
		scratch = make([]int32, 2*rt.NumInstances)
	}
	runAt, groupOf := scratch[:rt.NumInstances], scratch[rt.NumInstances:2*rt.NumInstances]
	spanned := 0 // instances with keys, at least as many as the groups
	for j := 0; j < n; j++ {
		inst := rt.InstanceFor(keys[position(j)])
		if runAt[inst] == 0 {
			spanned++
		}
		runAt[inst]++
	}
	// One allocation holds the groups: there are no more of them than
	// instances with keys, nor than data servers.
	groups := make([]serverGroup, 0, min(spanned, cl.c.opts.DataServers))
	for inst, count := range runAt {
		if count == 0 {
			continue
		}
		target := rt.Hosts[inst]
		gi := 0
		for gi < len(groups) && groups[gi].id != target {
			gi++
		}
		if gi == len(groups) {
			g := serverGroup{id: target}
			var ok bool
			if g.ds, ok = cl.c.server(target); !ok {
				g.err = fmt.Errorf("tdstore: route names unknown server %q", target)
			}
			groups = append(groups, g)
		}
		groupOf[inst] = int32(gi) + 1
	}
	items := make([]batchItem, n)
	var end int32
	for gi := range groups {
		start := end
		for inst, g := range groupOf {
			if g == int32(gi)+1 {
				runAt[inst], end = end, end+runAt[inst]
			}
		}
		groups[gi].items = items[start:end]
	}
	for j := 0; j < n; j++ {
		pos := position(j)
		inst := rt.InstanceFor(keys[pos])
		items[runAt[inst]] = batchItem{inst: inst, key: keys[pos], pos: pos}
		runAt[inst]++
	}
	runGroups(groups, send)
	var stale []int
	var lastErr error
	for _, g := range groups {
		if g.err == nil {
			continue
		}
		if !retryable(g.err) {
			return nil, g.err
		}
		lastErr = g.err
		for _, it := range g.items {
			stale = append(stale, it.pos)
		}
	}
	return stale, lastErr
}

// routed is the batched request path against the hosts: attempt, and
// while some server's sub-batch came back retryable, one retryPause per
// attempt (so a stale route refreshes once per batch attempt, not once
// per key) and another attempt for those positions only, up to
// clientRetries times. pending is attempt's: nil for every key.
func (cl *Client) routed(what string, keys []string, pending []int, send groupSend) error {
	n := len(pending)
	if pending == nil {
		n = len(keys)
	}
	var lastErr error
	backoff := clientRetryBackoff
	for attempt := 0; attempt <= clientRetries; attempt++ {
		stale, err := cl.attempt(keys, pending, send)
		if len(stale) == 0 {
			return err
		}
		pending, lastErr = stale, err
		if backoff, err = cl.retryPause(backoff); err != nil {
			return err
		}
	}
	return fmt.Errorf("tdstore: %s of %d keys: retries exhausted: %w", what, n, lastErr)
}

// readInto is the send of a batched read: each group fills its items'
// positions of vals and found from the hosts.
func readInto(vals [][]byte, found []bool) groupSend {
	return func(ds *DataServer, items []batchItem) error {
		return ds.batchGet(items, vals, found)
	}
}

// BatchGet returns the values for keys in one pass through routed: each
// data server handles its whole group in a single call. found[i] reports
// whether keys[i] exists.
func (cl *Client) BatchGet(keys []string) ([][]byte, []bool, error) {
	defer cl.observe(clientBatchGet, cl.begin())
	vals, found := make([][]byte, len(keys)), make([]bool, len(keys))
	if err := cl.routed("batch get", keys, nil, readInto(vals, found)); err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// BatchPut stores values[i] under keys[i] through routed: each server
// applies its group in one call with a single replication sync-op batch.
// The client builds every KV once, before the first attempt, and that KV
// is the stored version on host and slaves alike (see Put).
func (cl *Client) BatchPut(keys []string, values [][]byte) error {
	defer cl.observe(clientBatchPut, cl.begin())
	if len(keys) != len(values) {
		return fmt.Errorf("tdstore: batch put has %d keys but %d values", len(keys), len(values))
	}
	kvs := make([]engine.KV, len(values))
	for i, v := range values {
		kvs[i] = engine.MakeKV(keys[i], v)
	}
	return cl.routed("batch put", keys, nil, func(ds *DataServer, items []batchItem) error {
		return ds.hostBatchPut(items, kvs)
	})
}
