package netaddr

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAggregateBlocksBasic(t *testing.T) {
	blocks := []Block{
		V4Block(10, 0, 0), V4Block(10, 0, 1), // -> 10.0.0.0/23
		V4Block(10, 0, 4),                                // lone /24
		V4Block(10, 0, 0),                                // duplicate
		V6Block(0x20010db80000), V6Block(0x20010db80001), // -> /47
	}
	got := AggregateBlocks(blocks)
	want := map[string]bool{
		"10.0.0.0/23":   true,
		"10.0.4.0/24":   true,
		"2001:db8::/47": true,
	}
	if len(got) != len(want) {
		t.Fatalf("aggregated = %v", got)
	}
	for _, p := range got {
		if !want[p.String()] {
			t.Errorf("unexpected prefix %s", p)
		}
	}
}

func TestAggregateBlocksFullSupernets(t *testing.T) {
	// 256 consecutive aligned /24s collapse into one /16.
	var blocks []Block
	for i := 0; i < 256; i++ {
		blocks = append(blocks, V4Block(172, 16, byte(i)))
	}
	got := AggregateBlocks(blocks)
	if len(got) != 1 || got[0].String() != "172.16.0.0/16" {
		t.Fatalf("aggregated = %v", got)
	}
}

func TestAggregateBlocksUnalignedPair(t *testing.T) {
	// .1 and .2 are adjacent but misaligned: they must not merge.
	got := AggregateBlocks([]Block{V4Block(10, 0, 1), V4Block(10, 0, 2)})
	if len(got) != 2 {
		t.Fatalf("misaligned pair merged: %v", got)
	}
}

func TestAggregateBlocksEmpty(t *testing.T) {
	if got := AggregateBlocks(nil); got != nil {
		t.Errorf("empty input = %v", got)
	}
}

func TestExpandPrefix(t *testing.T) {
	blocks, ok := ExpandPrefix(netip.MustParsePrefix("192.168.0.0/22"))
	if !ok || len(blocks) != 4 {
		t.Fatalf("expand /22 = %v,%v", blocks, ok)
	}
	if blocks[0] != V4Block(192, 168, 0) || blocks[3] != V4Block(192, 168, 3) {
		t.Errorf("expansion wrong: %v", blocks)
	}
	if _, ok := ExpandPrefix(netip.MustParsePrefix("10.0.0.0/25")); ok {
		t.Error("longer-than-unit prefix accepted")
	}
	if _, ok := ExpandPrefix(netip.MustParsePrefix("10.0.0.0/2")); ok {
		t.Error("absurdly short prefix accepted")
	}
	v6, ok := ExpandPrefix(netip.MustParsePrefix("2001:db8::/47"))
	if !ok || len(v6) != 2 || !v6[0].IsV6() {
		t.Fatalf("expand v6 = %v,%v", v6, ok)
	}
}

// Property: aggregation round-trips — expanding the aggregate reproduces
// exactly the deduplicated input block set.
func TestAggregateRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := int(nRaw%64) + 1
		in := make(Set)
		for i := 0; i < n; i++ {
			// Cluster keys so merges actually happen.
			in.Add(MakeBlock(IPv4, 0x0a0000+uint64(rng.IntN(48))))
		}
		var blocks []Block
		for b := range in {
			blocks = append(blocks, b)
		}
		prefixes := AggregateBlocks(blocks)
		out := make(Set)
		for _, p := range prefixes {
			expanded, ok := ExpandPrefix(p)
			if !ok {
				return false
			}
			for _, b := range expanded {
				if out.Has(b) {
					return false // overlapping prefixes
				}
				out.Add(b)
			}
		}
		if out.Len() != in.Len() {
			return false
		}
		for b := range in {
			if !out.Has(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the aggregate is minimal enough to never exceed the input size.
func TestAggregateNeverGrowsProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		seen := make(Set)
		var blocks []Block
		for _, k := range keys {
			b := MakeBlock(IPv4, uint64(k))
			if !seen.Has(b) {
				seen.Add(b)
				blocks = append(blocks, b)
			}
		}
		return len(AggregateBlocks(blocks)) <= len(blocks)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAggregateBlocks(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	blocks := make([]Block, 10000)
	for i := range blocks {
		blocks[i] = MakeBlock(IPv4, uint64(rng.IntN(40000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateBlocks(blocks)
	}
}
