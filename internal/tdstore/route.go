// Package tdstore implements the Tencent Data Store analog of the paper
// (§3.3): a distributed, memory-oriented key-value store that keeps the
// recommendation pipeline's status data — user histories, item counts,
// pair counts, similarity lists and CTR statistics — outside the stateless
// stream workers.
//
// The key space is divided into data instances, and each instance is one
// engine, which holds its only copy. The route table that places keys on
// instances is fixed for the cluster's life, and clients use it to reach
// an instance's engine directly.
//
// The paper's data servers, its slave copies, its backup config server and
// the failover between them are left out: the store runs inside one
// process, so the process is the failure unit and a fault takes every copy
// at once. A durable engine's checkpoint and the replay of the action
// log's tail past it (Cluster.Checkpoint) are what recover the store.
package tdstore

import "tencentrec/internal/keyhash"

// InstanceID identifies a data instance (a shard of the key space).
type InstanceID int

// RouteTable maps every key to the data instance that holds it.
type RouteTable struct {
	// NumInstances is the number of data instances (key-space shards).
	NumInstances int
}

// InstanceFor returns the data instance owning key: FNV-1a-32 of the key
// modulo the instance count (bit-identical to the hash/fnv + Fprint form
// of the store's first version, so data placement is unchanged — see
// TestInstanceForMatchesFNVReference).
func (rt *RouteTable) InstanceFor(key string) InstanceID {
	return rt.instanceOf(keyhash.String(key))
}

// instanceOf returns the data instance owning the key whose keyhash is h:
// the hash's FNV-1a-32 half places it, so a caller that carries the hash
// routes without reading the key.
func (rt *RouteTable) instanceOf(h uint64) InstanceID {
	return InstanceID(keyhash.Route(h) % uint32(rt.NumInstances))
}
