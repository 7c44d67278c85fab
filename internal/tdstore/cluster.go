package tdstore

import (
	"fmt"
	"sync/atomic"

	"tencentrec/internal/tdstore/engine"
)

// DefaultInstances is the number of data instances when
// Options.Instances is zero.
const DefaultInstances = 16

// Options configure a TDStore cluster.
type Options struct {
	// DataServers was the number of data servers.
	//
	// Deprecated: ignored, as Replicas is. An instance is an engine, and
	// no server stands between a client and it.
	DataServers int
	// Instances is the number of data instances (key-space shards).
	// Default DefaultInstances.
	Instances int
	// Replicas was the number of slave copies per instance.
	//
	// Deprecated: ignored. Each instance has one copy, its engine.
	Replicas int
	// Engine constructs the storage engine for each data instance.
	// Default: engine.NewMemory (the MDB engine).
	Engine func(instance InstanceID) (engine.Engine, error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Instances <= 0 {
		out.Instances = DefaultInstances
	}
	if out.Engine == nil {
		out.Engine = func(InstanceID) (engine.Engine, error) { return engine.NewMemory(), nil }
	}
	return out
}

// instance is one data instance: the engine that holds it. A write goes
// straight to the engine, which is safe for concurrent writers; each key
// has one writer (§4.1.3), so no lock above the engine orders them.
type instance struct {
	eng engine.Engine
}

// Cluster is a TDStore deployment: its data instances, one engine each,
// and the route table that places keys on them. Use NewCluster to build
// one and NewClient for access. Nothing moves an instance after
// construction, so the route and the instances are read with no lock.
type Cluster struct {
	route     *RouteTable
	instances []*instance // by InstanceID
	closed    atomic.Bool
}

// NewCluster builds a cluster, opening each instance's engine with
// Options.Engine.
func NewCluster(opts Options) (*Cluster, error) {
	o := opts.withDefaults()
	c := &Cluster{
		route:     &RouteTable{NumInstances: o.Instances},
		instances: make([]*instance, o.Instances),
	}
	for inst := range c.instances {
		eng, err := o.Engine(InstanceID(inst))
		if err != nil {
			// Close what is already open: disk engines hold WAL handles
			// and goroutines that would otherwise leak past the failed
			// construction.
			c.Close()
			return nil, fmt.Errorf("tdstore: create engine: %w", err)
		}
		c.instances[inst] = &instance{eng: eng}
	}
	return c, nil
}

// engines calls fn with every open instance's engine, in instance order.
func (c *Cluster) engines(fn func(engine.Engine)) {
	for _, in := range c.instances {
		if in != nil {
			fn(in.eng)
		}
	}
}

// Close closes every engine and returns the first error.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	c.engines(func(eng engine.Engine) {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}
