package tdstore

import (
	"fmt"

	"tencentrec/internal/keyhash"
	"tencentrec/internal/tdstore/engine"
)

// batchItem is one key of a batched request, its keyhash and its position
// in the caller's key, value and result slices.
type batchItem struct {
	key string
	h   uint64
	pos int
}

// Client provides keyed access to a TDStore cluster. It holds the route
// table and reaches a key's engine directly, as the paper's client
// reaches "the data servers located by the route table" (§3.3): a key's
// instance is one hash away, and its engine one slice index. The route is fixed for the cluster's life, so a Client
// reads it with no lock and is safe for concurrent use.
//
// Every operation has a hashed form that takes the key's keyhash beside
// the key: the client routes by it and the engine indexes by it, so a
// caller that carries the hash (a pipeline task's interner) has the key
// hashed nowhere below it. The string-keyed forms hash the key and call
// the hashed ones.
type Client struct {
	route     *RouteTable
	instances []*instance // by InstanceID

	// ins is set by Instrument; nil on an uninstrumented client, in
	// which case operations skip all observability work.
	ins *clientInstruments
}

// NewClient returns a client of the cluster. The error is always nil.
func (c *Cluster) NewClient() (*Client, error) {
	return &Client{route: c.route, instances: c.instances}, nil
}

// instance returns the instance that owns the key whose keyhash is h.
func (cl *Client) instance(h uint64) *instance {
	return cl.instances[cl.route.instanceOf(h)]
}

// Get returns the value stored under key.
func (cl *Client) Get(key string) ([]byte, bool, error) {
	return cl.GetHashed(key, keyhash.String(key))
}

// GetHashed is Get of a key whose keyhash is h.
func (cl *Client) GetHashed(key string, h uint64) ([]byte, bool, error) {
	defer cl.observe(clientGet, cl.begin())
	return cl.instance(h).eng.GetHashed(key, h)
}

// Put stores value under key.
func (cl *Client) Put(key string, value []byte) error {
	return cl.PutHashed(key, keyhash.String(key), value)
}

// PutHashed is Put of a key whose keyhash is h. The client builds the
// version's KV once, and that KV is the stored version: the engine keeps
// it. The caller may reuse its buffer at once.
func (cl *Client) PutHashed(key string, h uint64, value []byte) error {
	defer cl.observe(clientPut, cl.begin())
	return cl.instance(h).eng.PutHashed(engine.MakeKV(key, value), h)
}

// Delete removes key.
func (cl *Client) Delete(key string) error {
	defer cl.observe(clientDelete, cl.begin())
	return cl.instance(keyhash.String(key)).eng.Delete(key)
}

// maxStackInstances is the largest route whose per-instance counters
// runs keeps on its stack; a route with more instances allocates them.
const maxStackInstances = 64

// runs sorts keys, whose keyhashes are hs, into one run per instance,
// each in batch order, and
// calls fn with each run, in instance order, until one returns an error.
// The sort is a counting pass over the instances, a small dense range:
// one slice holds every item and a run is a contiguous part of it, so a
// batched write reaches each instance once, and of two writes to one key
// the later wins. The items are all it allocates.
func (cl *Client) runs(keys []string, hs []uint64, fn func(in *instance, run []batchItem) error) error {
	n := cl.route.NumInstances
	var stack [maxStackInstances]int32
	end := stack[:min(n, maxStackInstances)]
	if n > maxStackInstances {
		end = make([]int32, n)
	}
	for _, h := range hs {
		end[cl.route.instanceOf(h)]++
	}
	// end[i] becomes where instance i's run starts; filling the run
	// moves it to where the run ends.
	var at int32
	for i, count := range end {
		end[i], at = at, at+count
	}
	items := make([]batchItem, len(keys))
	for pos, k := range keys {
		inst := cl.route.instanceOf(hs[pos])
		items[end[inst]] = batchItem{key: k, h: hs[pos], pos: pos}
		end[inst]++
	}
	start := int32(0)
	for i, e := range end {
		if e > start {
			if err := fn(cl.instances[i], items[start:e]); err != nil {
				return err
			}
		}
		start = e
	}
	return nil
}

// BatchGet returns the values for keys, one run of reads per instance.
// found[i] reports whether keys[i] exists.
func (cl *Client) BatchGet(keys []string) ([][]byte, []bool, error) {
	return cl.BatchGetHashed(keys, keyhash.Strings(keys))
}

// BatchGetHashed is BatchGet with hs[i] the keyhash of keys[i].
func (cl *Client) BatchGetHashed(keys []string, hs []uint64) ([][]byte, []bool, error) {
	defer cl.observe(clientBatchGet, cl.begin())
	vals, found := make([][]byte, len(keys)), make([]bool, len(keys))
	err := cl.runs(keys, hs, func(in *instance, run []batchItem) (err error) {
		for _, it := range run {
			if vals[it.pos], found[it.pos], err = in.eng.GetHashed(it.key, it.h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return vals, found, nil
}

// BatchPut stores values[i] under keys[i]: each instance's run applies
// as one PutBatch. The client builds every KV once, in run order, so a
// run's KVs are a contiguous part of one slice, and that KV is the stored
// version (see Put). An error leaves the runs before it applied; a Put
// being idempotent, the caller may send the batch again.
func (cl *Client) BatchPut(keys []string, values [][]byte) error {
	return cl.BatchPutHashed(keys, keyhash.Strings(keys), values)
}

// BatchPutHashed is BatchPut with hs[i] the keyhash of keys[i].
func (cl *Client) BatchPutHashed(keys []string, hs []uint64, values [][]byte) error {
	defer cl.observe(clientBatchPut, cl.begin())
	if len(keys) != len(values) || len(keys) != len(hs) {
		return fmt.Errorf("tdstore: batch put has %d keys, %d hashes and %d values", len(keys), len(hs), len(values))
	}
	kvs := make([]engine.KV, 0, len(values))
	khs := make([]uint64, 0, len(values))
	return cl.runs(keys, hs, func(in *instance, run []batchItem) error {
		from := len(kvs)
		for _, it := range run {
			kvs = append(kvs, engine.MakeKV(it.key, values[it.pos]))
			khs = append(khs, it.h)
		}
		return in.eng.PutBatchHashed(kvs[from:len(kvs):len(kvs)], khs[from:len(khs):len(khs)])
	})
}
