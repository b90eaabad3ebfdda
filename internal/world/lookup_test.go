package world

import (
	"net/netip"
	"sync"
	"testing"

	"cellspot/internal/netaddr"
)

// lookupWorlds generates the Scale-0.005 worlds of seeds 1–3.
func lookupWorlds(t *testing.T) []*World {
	t.Helper()
	var out []*World
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Scale = seed, 0.005
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w)
	}
	return out
}

// TestWorldLookupsMatchIndexes checks Block, ASOf, CountryOf and
// ResolverAS against BlockIndex, Registry and Resolvers for every block,
// AS and resolver, and on keys the world does not hold.
func TestWorldLookupsMatchIndexes(t *testing.T) {
	for i, w := range lookupWorlds(t) {
		var maxV4 uint64
		for b, bi := range w.BlockIndex {
			if got := w.Block(b); got != bi {
				t.Fatalf("world %d: Block(%v) = %p, want %p", i, b, got, bi)
			}
			if a, ok := w.ASOf(b); !ok || a != bi.ASN {
				t.Fatalf("world %d: ASOf(%v) = %d,%v, want %d", i, b, a, ok, bi.ASN)
			}
			if !b.IsV6() {
				maxV4 = max(maxV4, b.Key())
			}
		}
		for _, miss := range []netaddr.Block{
			netaddr.MakeBlock(netaddr.IPv4, maxV4+1),
			netaddr.V6Block(0xfd00_0000_0000),
		} {
			if w.BlockIndex[miss] != nil {
				t.Fatalf("world %d: %v is not a miss", i, miss)
			}
			if bi := w.Block(miss); bi != nil {
				t.Errorf("world %d: Block(%v) = %+v for an absent block", i, miss, bi)
			}
			if a, ok := w.ASOf(miss); ok {
				t.Errorf("world %d: ASOf(%v) = %d for an absent block", i, miss, a)
			}
		}

		var maxAS uint32
		for _, a := range w.Registry.All() {
			if cc, ok := w.CountryOf(a.Number); !ok || cc != a.Country {
				t.Fatalf("world %d: CountryOf(%d) = %q,%v, want %q", i, a.Number, cc, ok, a.Country)
			}
			maxAS = max(maxAS, a.Number)
		}
		if cc, ok := w.CountryOf(maxAS + 1); ok {
			t.Errorf("world %d: CountryOf(%d) = %q for an unregistered AS", i, maxAS+1, cc)
		}

		// Two readers race to build the resolver index.
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, r := range w.Resolvers {
					if a, ok := w.ResolverAS(r.Addr); !ok || a != r.ASN {
						t.Errorf("world %d: ResolverAS(%v) = %d,%v, want %d", i, r.Addr, a, ok, r.ASN)
						return
					}
				}
			}()
		}
		wg.Wait()
		held := make(map[netip.Addr]bool, len(w.Resolvers))
		for _, r := range w.Resolvers {
			held[r.Addr] = true
		}
		miss := netip.MustParseAddr("192.0.2.1") // TEST-NET-1
		if held[miss] {
			t.Fatalf("world %d: %v is not a miss", i, miss)
		}
		if a, ok := w.ResolverAS(miss); ok {
			t.Errorf("world %d: ResolverAS(%v) = %d for an absent resolver", i, miss, a)
		}
	}
}

// TestCloneAddBlockLeavesOriginal changes every block of a clone and adds
// one, then checks that the original's Blocks and BlockIndex still hold
// the same values, and that the clone answers for its new block.
func TestCloneAddBlockLeavesOriginal(t *testing.T) {
	for i, w := range lookupWorlds(t) {
		blocks := make([]BlockInfo, len(w.Blocks))
		for j, bi := range w.Blocks {
			blocks[j] = *bi
		}
		nIndex := len(w.BlockIndex)

		c := w.Clone()
		for _, bi := range c.Blocks {
			bi.ASN++
			bi.Demand = -1
		}
		var maxV4 uint64
		for _, bi := range w.Blocks {
			if !bi.Block.IsV6() {
				maxV4 = max(maxV4, bi.Block.Key())
			}
		}
		added := &BlockInfo{Block: netaddr.MakeBlock(netaddr.IPv4, maxV4+1), ASN: 7}
		c.AddBlock(added)

		if len(w.Blocks) != len(blocks) || len(w.BlockIndex) != nIndex {
			t.Fatalf("world %d: original grew to %d blocks, %d indexed; want %d, %d",
				i, len(w.Blocks), len(w.BlockIndex), len(blocks), nIndex)
		}
		for j, bi := range w.Blocks {
			if *bi != blocks[j] {
				t.Fatalf("world %d: original block %v changed", i, bi.Block)
			}
			if w.BlockIndex[bi.Block] != bi {
				t.Fatalf("world %d: original index of %v moved", i, bi.Block)
			}
		}
		if w.Block(added.Block) != nil {
			t.Errorf("world %d: the original holds the clone's new block", i)
		}
		if a, ok := c.ASOf(added.Block); !ok || a != 7 || c.Blocks[len(c.Blocks)-1] != added {
			t.Errorf("world %d: the clone does not hold its new block", i)
		}
		if len(c.Blocks) != len(blocks)+1 {
			t.Errorf("world %d: clone has %d blocks, want %d", i, len(c.Blocks), len(blocks)+1)
		}
	}
}
