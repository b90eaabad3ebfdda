package cluster

import (
	"math/rand/v2"
	"net/netip"
	"testing"

	"cellspot/internal/netaddr"
)

// sampleBlocks yields a deterministic spread of v4 and v6 unit blocks.
func sampleBlocks(n int) []netaddr.Block {
	rng := rand.New(rand.NewPCG(7, 11))
	out := make([]netaddr.Block, 0, n)
	for i := 0; i < n; i++ {
		if i%4 == 3 {
			out = append(out, netaddr.V6Block(rng.Uint64()))
		} else {
			out = append(out, netaddr.MakeBlock(netaddr.IPv4, rng.Uint64()&0xffffff))
		}
	}
	return out
}

func TestRingDeterministic(t *testing.T) {
	a := NewRing(5, 64)
	b := NewRing(5, 64)
	for _, blk := range sampleBlocks(2000) {
		if a.OwnerBlock(blk) != b.OwnerBlock(blk) {
			t.Fatalf("two identically-built rings disagree on %v", blk)
		}
	}
	// Owner must agree with OwnerBlock through the address path.
	addr := netip.MustParseAddr("203.0.113.77")
	if a.Owner(addr) != a.OwnerBlock(netaddr.BlockFromAddr(addr)) {
		t.Error("Owner and OwnerBlock disagree")
	}
}

func TestRingCoverageAndBalance(t *testing.T) {
	const shards = 3
	r := NewRing(shards, 64)
	counts := make([]int, shards)
	blocks := sampleBlocks(12000)
	for _, blk := range blocks {
		s := r.OwnerBlock(blk)
		if s < 0 || s >= shards {
			t.Fatalf("owner %d out of range", s)
		}
		counts[s]++
	}
	// With 64 vnodes per shard the partition is close to even; a shard
	// below a third of its fair share means the ring is broken.
	fair := len(blocks) / shards
	for s, c := range counts {
		if c < fair/3 {
			t.Errorf("shard %d owns %d of %d blocks (fair %d): ring badly imbalanced",
				s, c, len(blocks), fair)
		}
	}
}

// TestRingStability pins the consistent-hashing property: growing the
// fleet by one shard must move only a minority of the keyspace, not
// reshuffle it wholesale (mod-N hashing would move ~3/4 at N=3→4).
func TestRingStability(t *testing.T) {
	before := NewRing(3, 64)
	after := NewRing(4, 64)
	blocks := sampleBlocks(12000)
	moved := 0
	for _, blk := range blocks {
		a, b := before.OwnerBlock(blk), after.OwnerBlock(blk)
		if a != b {
			moved++
			// Every moved key must land on the new shard; keys moving
			// between old shards would mean placement is not consistent.
			if b != 3 {
				t.Fatalf("block %v moved %d -> %d, not to the new shard", blk, a, b)
			}
		}
	}
	if frac := float64(moved) / float64(len(blocks)); frac > 0.45 {
		t.Errorf("adding a 4th shard moved %.0f%% of the keyspace, want ~25%%", frac*100)
	}
}

func TestRingReplicaAddressesIrrelevant(t *testing.T) {
	t1 := Topology{Format: TopologyFormat, Shards: []ShardSpec{
		{Replicas: []string{"http://a:1"}}, {Replicas: []string{"http://b:1"}},
	}}
	t2 := Topology{Format: TopologyFormat, Shards: []ShardSpec{
		{Replicas: []string{"http://x:9", "http://y:9"}}, {Replicas: []string{"http://z:9"}},
	}}
	r1, r2 := t1.Ring(), t2.Ring()
	for _, blk := range sampleBlocks(1000) {
		if r1.OwnerBlock(blk) != r2.OwnerBlock(blk) {
			t.Fatal("replica addresses influenced key placement")
		}
	}
}
