// Package cluster turns the single-node lookup service into a shardable,
// replicated fleet: a deterministic consistent-hash ring partitions the
// prefix keyspace (netaddr unit blocks) across N shards, every shard runs
// R interchangeable replicas, and a stateless gateway routes single
// lookups to the owning shard and scatter-gathers batch lookups across
// shards — with health checking, retry, hedging, and a guard that keeps
// every batch response on one map generation.
//
// The fleet is described by a static topology file every node loads at
// boot. Routing is a pure function of (shard count, vnodes, address), so
// gateways and shards agree on ownership without any coordination
// traffic; replica addresses never influence key placement, which means
// replacing or adding a replica moves no data.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"strings"
)

// TopologyFormat is the format tag a topology file must carry.
const TopologyFormat = "cellspot-topology/1"

// DefaultVNodes is the virtual-node count per shard when the topology
// file leaves vnodes unset. 64 points per shard keeps the maximum/mean
// keyspace imbalance within a few percent for small fleets.
const DefaultVNodes = 64

// MaxVNodes bounds a topology's vnodes. Every gateway and shard builds a
// ring of shards×vnodes 16-byte points at boot, so an unbounded count
// would turn one mistyped number into a multi-gigabyte allocation instead
// of a validation error.
const MaxVNodes = 4096

// ShardSpec lists one shard's interchangeable replicas by base URL.
type ShardSpec struct {
	Replicas []string `json:"replicas"`
}

// Topology is the static cluster description: who serves which partition.
// The partition layout is fully determined by len(Shards) and VNodes;
// replica URLs only tell the gateway where to send traffic.
type Topology struct {
	Format string      `json:"format"`
	VNodes int         `json:"vnodes,omitempty"`
	Shards []ShardSpec `json:"shards"`
}

// NumShards returns the shard count N.
func (t Topology) NumShards() int { return len(t.Shards) }

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return Topology{}, fmt.Errorf("cluster: open topology: %w", err)
	}
	defer f.Close()
	return ParseTopology(f)
}

// ParseTopology decodes and validates a topology document.
func ParseTopology(r io.Reader) (Topology, error) {
	var t Topology
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("cluster: parse topology: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Validate checks the invariants every node relies on. A topology that
// fails validation must abort boot: a node running with a malformed or
// disagreeing topology would silently misroute the keyspace.
func (t Topology) Validate() error {
	if t.Format != TopologyFormat {
		return fmt.Errorf("cluster: topology format %q, want %q", t.Format, TopologyFormat)
	}
	if t.VNodes < 0 || t.VNodes > MaxVNodes {
		return fmt.Errorf("cluster: vnodes %d outside [0, %d]", t.VNodes, MaxVNodes)
	}
	if len(t.Shards) == 0 {
		return fmt.Errorf("cluster: topology has no shards")
	}
	seen := make(map[string]string, len(t.Shards)*2)
	for i, s := range t.Shards {
		if len(s.Replicas) == 0 {
			return fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		for j, raw := range s.Replicas {
			where := fmt.Sprintf("shard %d replica %d", i, j)
			u, err := url.Parse(raw)
			if err != nil {
				return fmt.Errorf("cluster: %s: bad url %q: %w", where, raw, err)
			}
			if u.Scheme != "http" && u.Scheme != "https" {
				return fmt.Errorf("cluster: %s: url %q must be http or https", where, raw)
			}
			if u.Host == "" {
				return fmt.Errorf("cluster: %s: url %q has no host", where, raw)
			}
			if u.Path != "" && u.Path != "/" {
				return fmt.Errorf("cluster: %s: url %q must not carry a path", where, raw)
			}
			key := strings.TrimSuffix(raw, "/")
			if prev, dup := seen[key]; dup {
				return fmt.Errorf("cluster: replica %q listed twice (%s and %s)", raw, prev, where)
			}
			seen[key] = where
		}
	}
	return nil
}

// vnodes returns the effective virtual-node count.
func (t Topology) vnodes() int {
	if t.VNodes > 0 {
		return t.VNodes
	}
	return DefaultVNodes
}

// Ring builds the topology's consistent-hash ring.
func (t Topology) Ring() *Ring {
	return NewRing(len(t.Shards), t.vnodes())
}

// ParseShardID parses the -shard i/N flag form and cross-checks N against
// the topology, catching the operator error of pointing a node at a
// topology file from a different fleet size.
func ParseShardID(spec string, t Topology) (int, error) {
	idx, total, ok := strings.Cut(spec, "/")
	if !ok {
		return 0, fmt.Errorf("cluster: shard spec %q not of the form i/N", spec)
	}
	i, err := strconv.Atoi(idx)
	if err != nil {
		return 0, fmt.Errorf("cluster: shard spec %q: bad index: %w", spec, err)
	}
	n, err := strconv.Atoi(total)
	if err != nil {
		return 0, fmt.Errorf("cluster: shard spec %q: bad count: %w", spec, err)
	}
	if n != t.NumShards() {
		return 0, fmt.Errorf("cluster: shard spec %q names %d shards but topology has %d",
			spec, n, t.NumShards())
	}
	if i < 0 || i >= n {
		return 0, fmt.Errorf("cluster: shard index %d out of range [0,%d)", i, n)
	}
	return i, nil
}
