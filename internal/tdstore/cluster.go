package tdstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"tencentrec/internal/tdstore/engine"
)

// Options configure a TDStore cluster.
type Options struct {
	// DataServers is the number of data servers. Default 4.
	DataServers int
	// Instances is the number of data instances (key-space shards).
	// Default 16.
	Instances int
	// Replicas is the number of slave copies per instance ("each data
	// instance has multiple backups", §3.3). Default 1. Capped at
	// DataServers-1.
	Replicas int
	// Engine constructs the storage engine for each data instance.
	// Default: engine.NewMemory (the MDB engine).
	Engine func(serverID string, instance InstanceID) (engine.Engine, error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.DataServers <= 0 {
		out.DataServers = 4
	}
	if out.Instances <= 0 {
		out.Instances = 16
	}
	if out.Replicas <= 0 {
		out.Replicas = 1
	}
	if out.Replicas > out.DataServers-1 {
		out.Replicas = out.DataServers - 1
	}
	if out.Engine == nil {
		out.Engine = func(string, InstanceID) (engine.Engine, error) { return engine.NewMemory(), nil }
	}
	return out
}

// configServer is one of the two config servers (§3.3: "a host config
// server and a backup config server") managing the route table.
type configServer struct {
	id   string
	down bool
}

// Cluster is a TDStore deployment: config servers, data servers and the
// route table. Use NewCluster to build one and NewClient for access.
type Cluster struct {
	opts Options

	mu      sync.Mutex
	servers []*DataServer
	byID    map[string]*DataServer
	route   *RouteTable
	configs [2]*configServer // [0] starts as host
	// routeQueries counts route-table fetches, exercised by tests of the
	// "query the host config server to get the route table" flow.
	routeQueries int64
	closed       bool
}

// NewCluster builds a cluster, creates every data instance on its host
// and slave servers, and publishes route table version 1.
func NewCluster(opts Options) (*Cluster, error) {
	o := opts.withDefaults()
	c := &Cluster{
		opts: o,
		byID: make(map[string]*DataServer),
		configs: [2]*configServer{
			{id: "config-host"},
			{id: "config-backup"},
		},
	}
	for i := 0; i < o.DataServers; i++ {
		ds := newDataServer(fmt.Sprintf("ds-%d", i))
		c.servers = append(c.servers, ds)
		c.byID[ds.ID] = ds
	}
	rt := &RouteTable{
		Version:      1,
		NumInstances: o.Instances,
		Hosts:        make([]string, o.Instances),
		Slaves:       make([][]string, o.Instances),
	}
	for inst := 0; inst < o.Instances; inst++ {
		host := c.servers[inst%len(c.servers)]
		rt.Hosts[inst] = host.ID
		var slaveIDs []string
		var slaves []*DataServer
		for r := 1; r <= o.Replicas; r++ {
			s := c.servers[(inst+r)%len(c.servers)]
			slaveIDs = append(slaveIDs, s.ID)
			slaves = append(slaves, s)
		}
		rt.Slaves[inst] = slaveIDs
		// Materialize the instance on host and slaves.
		for _, ds := range append([]*DataServer{host}, slaves...) {
			eng, err := o.Engine(ds.ID, InstanceID(inst))
			if err != nil {
				// Unwind everything already materialized: disk engines
				// hold WAL handles and goroutines that would otherwise
				// leak past the failed construction.
				for _, s := range c.servers {
					s.stop()
					h := s.hosting.Load()
					for _, e := range h.instances {
						e.Close()
					}
				}
				return nil, fmt.Errorf("tdstore: create engine: %w", err)
			}
			ds.addInstance(InstanceID(inst), eng)
		}
		host.setHost(InstanceID(inst), slaves)
	}
	c.route = rt
	return c, nil
}

// RouteTable returns a copy of the current route table via the active
// config server.
func (c *Cluster) RouteTable() (*RouteTable, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.configs[0].down && c.configs[1].down {
		return nil, errors.New("tdstore: no config server available")
	}
	c.routeQueries++
	return c.route.clone(), nil
}

// RouteQueries reports how many route-table fetches have been served.
func (c *Cluster) RouteQueries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routeQueries
}

// server returns the data server by id.
func (c *Cluster) server(id string) (*DataServer, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, ok := c.byID[id]
	return ds, ok
}

// Servers returns the data servers, for inspection and fault injection.
func (c *Cluster) Servers() []*DataServer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*DataServer(nil), c.servers...)
}

// KillConfigHost fails the host config server; the backup takes over,
// so route-table service continues (§3.3's host/backup pair).
func (c *Cluster) KillConfigHost() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.configs[0].down = true
}

// ReviveConfigHost brings the host config server back into service.
func (c *Cluster) ReviveConfigHost() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.configs[0].down = false
}

// KillConfigBackup fails the backup config server. With the host also
// down, route-table service is unavailable until one of them revives.
func (c *Cluster) KillConfigBackup() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.configs[1].down = true
}

// ReviveConfigBackup brings the backup config server back into service.
func (c *Cluster) ReviveConfigBackup() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.configs[1].down = false
}

// KillDataServer simulates a data server failure. The config server
// detects it (heartbeat timeout in a real deployment, immediate here) and
// promotes a live slave for every instance the dead server hosted,
// publishing a new route-table version.
//
// Ordering matters for exactness: the down flag is swapped in first, the
// write fence then waits out every in-flight writer that saw the old
// snapshot (each such writer enqueues its replication ops before
// releasing its instance lock), and WaitSync drains those ops to the
// slaves. Only then is a slave promoted, so the new host has every write
// the dead host acknowledged.
func (c *Cluster) KillDataServer(id string) error {
	ds, ok := c.server(id)
	if !ok {
		return fmt.Errorf("tdstore: unknown data server %q", id)
	}
	ds.setDown(true)
	ds.fenceWrites()
	ds.WaitSync()

	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for inst := 0; inst < c.route.NumInstances; inst++ {
		if c.route.Hosts[inst] != id {
			continue
		}
		promoted := ""
		var rest []string
		for _, sid := range c.route.Slaves[inst] {
			s := c.byID[sid]
			if promoted == "" && !s.isDown() {
				promoted = sid
				continue
			}
			rest = append(rest, sid)
		}
		if promoted == "" {
			// No live replica: the instance is unavailable until a
			// revive; keep the dead host in the table so clients see
			// ErrServerDown rather than a silent reroute.
			continue
		}
		c.route.Hosts[inst] = promoted
		c.route.Slaves[inst] = rest
		changed = true
		// Rewire serving roles.
		newHost := c.byID[promoted]
		var slaveServers []*DataServer
		for _, sid := range rest {
			slaveServers = append(slaveServers, c.byID[sid])
		}
		newHost.setHost(InstanceID(inst), slaveServers)
		ds.clearHost(InstanceID(inst))
	}
	if changed {
		c.route.Version++
	}
	return nil
}

// ReviveDataServer brings a failed server back as a slave for every
// instance it stores, after a catch-up that makes its copy of each
// instance equal to the current host's.
//
// Writes made while it runs are fenced twice. Cluster.mu, held
// throughout, stalls every client operation at its route lookup
// (Cluster.server), so the whole store waits for the catch-up. A write
// already past its lookup is fenced by the host's write mutex of the
// instance, held from before the copy until the revived server is
// registered as the instance's slave: a write applied before it is in
// the copy, and a write applied after it replicates to the revived copy.
func (c *Cluster) ReviveDataServer(id string) error {
	ds, ok := c.server(id)
	if !ok {
		return fmt.Errorf("tdstore: unknown data server %q", id)
	}
	ds.setDown(false)

	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for _, inst := range ds.residentInstances() {
		hostID := c.route.Hosts[int(inst)]
		if hostID == id {
			continue // still the (possibly only) host
		}
		host := c.byID[hostID]
		registered := slices.Contains(c.route.Slaves[int(inst)], id)
		err := host.withInstanceFenced(inst, func() error {
			if err := catchUp(host, ds, inst); err != nil {
				return err
			}
			if !registered {
				host.addSlave(inst, ds)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !registered {
			c.route.Slaves[int(inst)] = append(c.route.Slaves[int(inst)], id)
			changed = true
		}
	}
	if changed {
		c.route.Version++
	}
	return nil
}

// catchUp makes replica's copy of inst equal to host's: every key the
// host holds, with the host's value, and no key it lacks (a delete made
// while the replica was down never reached it). The replica keeps the
// KVs the host's Range yields, as it keeps a replicated put's. It returns
// the first engine error. The caller fences the host's writes to
// inst; replication ops queued before the fence may still reach the
// replica after the copy, but they arrive in host order, so each key's
// last op is the host's current value and the copies stay equal.
func catchUp(host, replica *DataServer, inst InstanceID) error {
	src, ok := host.engineOf(inst)
	if !ok {
		return fmt.Errorf("tdstore: host %s lacks instance %d", host.ID, inst)
	}
	dst, ok := replica.engineOf(inst)
	if !ok {
		return fmt.Errorf("tdstore: replica %s lacks instance %d", replica.ID, inst)
	}
	absent := make(map[string]struct{}) // replica keys the host has not shown yet
	if err := dst.Range(func(kv engine.KV) bool {
		absent[kv.Key()] = struct{}{}
		return true
	}); err != nil {
		return err
	}
	var putErr error
	if err := src.Range(func(kv engine.KV) bool {
		delete(absent, kv.Key())
		putErr = dst.PutKV(kv)
		return putErr == nil
	}); err != nil {
		return err
	}
	if putErr != nil {
		return putErr
	}
	for k := range absent {
		if err := dst.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// WaitSync drains all pending host→slave replication in the cluster.
func (c *Cluster) WaitSync() {
	for _, ds := range c.Servers() {
		ds.WaitSync()
	}
}

// Close stops background replication and closes every engine.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	servers := append([]*DataServer(nil), c.servers...)
	c.mu.Unlock()
	// Stop every sync loop before closing any engine: a stopping loop
	// drains its queue by applying replica ops to OTHER servers' engines,
	// so no engine may close until all loops have drained.
	for _, ds := range servers {
		ds.stop()
	}
	var first error
	for _, ds := range servers {
		h := ds.hosting.Load()
		for _, eng := range h.instances {
			if err := eng.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
