package world

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"unsafe"

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

// TestWorldCursorMatchesIndex checks a Cursor's Block, ASOf and
// AppendAffinity against the World's own methods on query sequences that
// ascend, repeat, go backward, alternate between v4 and v6 in both
// directions and miss, on the worlds of seeds 1-3 and on clones of them
// with blocks appended by AddBlock out of canonical order.
func TestWorldCursorMatchesIndex(t *testing.T) {
	check := func(t *testing.T, w *World, name string, queries []netaddr.Block) *Cursor {
		t.Helper()
		c := w.NewCursor()
		var got, want []ResolverWeight
		for qi, b := range queries {
			if g, x := c.Block(b), w.Block(b); g != x {
				t.Fatalf("%s: query %d: Block(%v) = %p, want %p", name, qi, b, g, x)
			}
			ga, gok := c.ASOf(b)
			if xa, xok := w.ASOf(b); ga != xa || gok != xok {
				t.Fatalf("%s: query %d: ASOf(%v) = %d,%v, want %d,%v", name, qi, b, ga, gok, xa, xok)
			}
			got, want = c.AppendAffinity(got[:0], b), w.AppendAffinity(want[:0], b)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: query %d: AppendAffinity(%v) = %v, want %v", name, qi, b, got, want)
			}
		}
		return c
	}
	for i, w := range lookupWorlds(t) {
		var v4, v6 []netaddr.Block // each family's blocks and their neighbours
		for _, bi := range w.Blocks {
			b := bi.Block
			for _, k := range []uint64{b.Key() - 1, b.Key(), b.Key() + 1} {
				if b.IsV6() {
					v6 = append(v6, netaddr.MakeBlock(netaddr.IPv6, k))
				} else {
					v4 = append(v4, netaddr.MakeBlock(netaddr.IPv4, k))
				}
			}
		}
		netaddr.SortBlocks(v4)
		netaddr.SortBlocks(v6)
		v4, v6 = slices.Compact(v4), slices.Compact(v6)
		ascending := append(slices.Clone(v4), v6...)
		misses := 0
		for _, b := range ascending {
			if w.Block(b) == nil {
				misses++
			}
		}
		if misses == 0 || misses == len(ascending) {
			t.Fatalf("world %d: %d of %d queries miss", i, misses, len(ascending))
		}
		name := func(s string) string { return fmt.Sprintf("world %d, %s", i, s) }

		c := check(t, w, name("ascending"), ascending)
		// The ascending walk stepped each family's position to its last
		// block instead of leaving every query to BlockIndex.
		for f, pos := range c.pos {
			last := -1
			for j, bi := range w.Blocks {
				if int(bi.Block.Fam()) == f {
					last = j
				}
			}
			if pos < last {
				t.Fatalf("world %d: family %d's position ended at %d, before its last block %d", i, f, pos, last)
			}
		}

		var repeated []netaddr.Block
		for _, b := range ascending {
			repeated = append(repeated, b, b)
		}
		check(t, w, name("repeated"), repeated)
		descending := slices.Clone(ascending)
		slices.Reverse(descending)
		check(t, w, name("descending"), descending)
		check(t, w, name("v6 then v4"), append(slices.Clone(v6), v4...))
		var alternating []netaddr.Block
		for j := range max(len(v4), len(v6)) {
			if j < len(v4) {
				alternating = append(alternating, v4[j])
			}
			if j < len(v6) {
				alternating = append(alternating, v6[len(v6)-1-j]) // v6 descends
			}
		}
		check(t, w, name("alternating"), alternating)
		var sawtooth []netaddr.Block // ascends, then jumps back a stretch
		for j := 0; j < len(ascending); j += 50 {
			sawtooth = append(sawtooth, ascending[j:min(j+100, len(ascending))]...)
		}
		check(t, w, name("sawtooth"), sawtooth)

		// A clone with blocks appended after the end of Blocks: one in a
		// gap of each family's keys, one past the last v4 key.
		cl := w.Clone()
		var added []netaddr.Block
		for _, fam := range [][]netaddr.Block{v4, v6} {
			for _, b := range fam {
				if cl.Block(b) == nil && cl.Block(netaddr.MakeBlock(b.Fam(), b.Key()-1)) != nil {
					added = append(added, b)
					break
				}
			}
		}
		added = append(added, netaddr.MakeBlock(netaddr.IPv4, v4[len(v4)-1].Key()+1))
		for _, b := range added {
			tmpl := *w.Blocks[len(w.Blocks)/2]
			tmpl.Block = b
			cl.AddBlock(&tmpl)
		}
		withAdded := append(slices.Clone(ascending), added...)
		netaddr.SortBlocks(withAdded)
		for _, b := range added {
			if cl.Block(b) == nil || w.Block(b) != nil {
				t.Fatalf("world %d: %v not added to the clone alone", i, b)
			}
		}
		check(t, cl, name("clone ascending"), withAdded)
		slices.Reverse(withAdded)
		check(t, cl, name("clone descending"), withAdded)
	}
}

// TestBlockInfoPacked holds BlockInfo at 40 bytes: a world keeps one per
// block, so a field that adds padding costs 8 bytes a block.
func TestBlockInfoPacked(t *testing.T) {
	if got := unsafe.Sizeof(BlockInfo{}); got != 40 {
		t.Fatalf("BlockInfo is %d bytes, want 40", got)
	}
}
