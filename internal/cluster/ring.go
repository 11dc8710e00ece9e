// Package cluster turns a set of wgrap-serve processes into a shard-aware
// cluster: static membership with health probing, consistent hashing of
// venue (tenant) ids onto the alive nodes, an epoch-stamped shard map
// served at /cluster/map, and journal replication — each tenant's durable
// edit journal is shipped over HTTP to the ring successor of its owner,
// which replays it into a warm standby Solver (stale-bounded read views)
// and takes ownership when the owner dies. Failover is journal replay: the
// same snapshot + CRC-checked record stream that crash recovery replays
// from disk, read from the wire instead.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per member. Servers and clients must
// hash with the same count to compute the same owners; both build their
// rings through NewRing, so they share it.
const vnodes = 64

type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over node ids. Ownership of a key is the
// first ring point clockwise of the key's hash; removing a node only moves
// the keys it owned (to each key's successor), which is what keeps a
// failover from reshuffling healthy tenants.
type Ring struct {
	points []ringPoint
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	// Avalanche finalizer (the murmur3 fmix64 constants): raw FNV-1a on
	// short keys with shared prefixes — vnode labels are "n1#0", "n1#1", … —
	// leaves the low bits correlated and skews the ring badly (one node of
	// three can end up owning 70% of the keyspace). Mixing restores a
	// near-uniform spread without changing the ring contract: ownership is
	// still a pure function of the node set.
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// NewRing builds a ring over nodes with vnodes virtual points per node. The
// ring is deterministic in the node set: any process given the same nodes
// computes identical ownership.
func NewRing(nodes []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*vnodes)}
	for _, n := range nodes {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// find returns the index of the first point clockwise of key's hash.
func (r *Ring) find(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.find(key)].node
}

// OwnerAndSuccessor returns key's owner and its designated follower: the
// first distinct node clockwise of the owner's point. By construction the
// successor is exactly the node that becomes owner when the owner is
// removed from the ring — so the follower replicating a tenant's journal is
// the node failover promotes, and the replica it built is the state the
// cluster serves from.
func (r *Ring) OwnerAndSuccessor(key string) (owner, successor string) {
	if len(r.points) == 0 {
		return "", ""
	}
	i := r.find(key)
	owner = r.points[i].node
	for j := 1; j < len(r.points); j++ {
		if n := r.points[(i+j)%len(r.points)].node; n != owner {
			return owner, n
		}
	}
	return owner, ""
}
