package cluster

import (
	"fmt"
	"net/netip"
	"sort"

	"cellspot/internal/netaddr"
)

// Ring is a deterministic consistent-hash partitioning of the prefix
// keyspace across shards. Each shard projects vnodes points onto a 64-bit
// hash circle; a unit block (IPv4 /24 or IPv6 /48) belongs to the shard
// owning the first point at or after the block's hash.
//
// Determinism is the load-bearing property: the ring is a pure function
// of (shards, vnodes), so every gateway and every shard node computes the
// identical Owner for every address with no coordination. Replica
// addresses are deliberately not hashed — replacing a replica moves no
// keys, and growing N shards to N+1 moves only the ~1/(N+1) of the
// keyspace that the new shard's points capture.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
	vnodes int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for the given shard and virtual-node counts.
func NewRing(shards, vnodes int) *Ring {
	if shards <= 0 {
		panic(fmt.Sprintf("cluster: NewRing with %d shards", shards))
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		points: make([]ringPoint, 0, shards*vnodes),
		shards: shards,
		vnodes: vnodes,
	}
	var key [16]byte
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			putUint64(key[0:8], uint64(s))
			putUint64(key[8:16], uint64(v))
			r.points = append(r.points, ringPoint{hash: fnv1a(key[:]), shard: s})
		}
	}
	// Ties broken by shard id so equal hashes still sort identically on
	// every node (fnv collisions are unlikely but must not be ambiguous).
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count N.
func (r *Ring) Shards() int { return r.shards }

// OwnerBlock returns the shard owning a unit block.
func (r *Ring) OwnerBlock(b netaddr.Block) int {
	var key [9]byte
	key[0] = byte(b.Fam())
	putUint64(key[1:9], b.Key())
	h := fnv1a(key[:])
	// First point with hash >= h, wrapping to points[0].
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Owner returns the shard owning the unit block containing addr. This is
// the Shard(addr) function every node agrees on.
func (r *Ring) Owner(addr netip.Addr) int {
	return r.OwnerBlock(netaddr.BlockFromAddr(addr))
}

func putUint64(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v >> (8 * (7 - i)))
	}
}

// fnv1a is the 64-bit FNV-1a hash, inlined so ring placement can never
// drift with a library change.
func fnv1a(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
