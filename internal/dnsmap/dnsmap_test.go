package dnsmap

import (
	"math"
	"net/netip"
	"reflect"
	"testing"

	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

var (
	resShared = netip.MustParseAddr("5.5.5.10")
	resCell   = netip.MustParseAddr("5.5.5.11")
	resFixed  = netip.MustParseAddr("5.5.5.12")
	resGoogle = netip.MustParseAddr("8.8.8.8")

	cellBlock  = netaddr.V4Block(10, 0, 0)
	fixedBlock = netaddr.V4Block(20, 0, 0)
	idleBlock  = netaddr.V4Block(30, 0, 0)
)

// mapAffinity serves a stored block→weights map as an Affinity.
func mapAffinity(m map[netaddr.Block][]world.ResolverWeight) Affinity {
	return func(dst []world.ResolverWeight, b netaddr.Block) []world.ResolverWeight {
		return append(dst, m[b]...)
	}
}

func fixture(t *testing.T) (Affinity, *demand.Dataset, netaddr.Set) {
	t.Helper()
	aff := mapAffinity(map[netaddr.Block][]world.ResolverWeight{
		cellBlock: {
			{Resolver: &world.Resolver{Addr: resShared}, Weight: 0.5},
			{Resolver: &world.Resolver{Addr: resCell}, Weight: 0.3},
			{Resolver: &world.Resolver{Addr: resGoogle}, Weight: 0.2},
		},
		fixedBlock: {
			{Resolver: &world.Resolver{Addr: resShared}, Weight: 0.6},
			{Resolver: &world.Resolver{Addr: resFixed}, Weight: 0.4},
		},
		idleBlock: {
			{Resolver: &world.Resolver{Addr: resFixed}, Weight: 1.0},
		},
	})
	ds, err := demand.NewDataset(map[netaddr.Block]float64{
		cellBlock:  25,
		fixedBlock: 75,
		// idleBlock has no demand
	})
	if err != nil {
		t.Fatal(err)
	}
	det := netaddr.NewSet(cellBlock)
	return aff, ds, det
}

func TestResolverUsage(t *testing.T) {
	aff, ds, det := fixture(t)
	usage := ResolverUsage(aff, ds, det)
	// DU: cellBlock 25000, fixedBlock 75000.
	sh := usage[resShared]
	if sh == nil {
		t.Fatal("shared resolver missing")
	}
	if math.Abs(sh.CellDU-12500) > 1e-6 || math.Abs(sh.FixedDU-45000) > 1e-6 {
		t.Errorf("shared usage = %+v", sh)
	}
	if f := sh.CellFraction(); math.Abs(f-12500.0/57500) > 1e-9 {
		t.Errorf("shared cell fraction = %g", f)
	}
	if usage[resCell].FixedDU != 0 || usage[resCell].CellDU == 0 {
		t.Errorf("cell-only resolver usage = %+v", usage[resCell])
	}
	if usage[resFixed].CellDU != 0 {
		t.Errorf("fixed-only resolver got cellular demand")
	}
	if (Usage{}).CellFraction() != 0 {
		t.Error("idle resolver fraction not 0")
	}
	// idleBlock contributed nothing despite affinity.
	if math.Abs(usage[resFixed].FixedDU-30000) > 1e-6 {
		t.Errorf("fixed resolver usage = %+v (idle block leaked?)", usage[resFixed])
	}
}

func TestCellFractions(t *testing.T) {
	aff, ds, det := fixture(t)
	usage := ResolverUsage(aff, ds, det)
	resolverAS := func(a netip.Addr) (uint32, bool) {
		if a == resGoogle {
			return 15169, true
		}
		return 42, true
	}
	fracs := CellFractions(usage, resolverAS, map[uint32]bool{42: true})
	if len(fracs) != 3 {
		t.Fatalf("fractions = %v", fracs)
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i-1] > fracs[i] {
			t.Fatal("fractions not sorted")
		}
	}
	// Unknown-AS resolvers are skipped.
	none := CellFractions(usage, func(netip.Addr) (uint32, bool) { return 0, false }, map[uint32]bool{42: true})
	if len(none) != 0 {
		t.Errorf("unmapped resolvers included: %v", none)
	}
}

func TestClassifySharing(t *testing.T) {
	s := ClassifySharing([]float64{0, 0.01, 0.25, 0.5, 0.99, 1}, 0.03, 0.97)
	if s.FixedOnly != 2 || s.Shared != 2 || s.CellOnly != 2 {
		t.Errorf("sharing = %+v", s)
	}
	empty := ClassifySharing(nil, 0.03, 0.97)
	if empty != (SharedStats{}) {
		t.Error("empty sharing nonzero")
	}
}

func TestPublicDNSByAS(t *testing.T) {
	aff, ds, det := fixture(t)
	known := KnownPublicResolvers()
	providerOf := func(a netip.Addr) string { return known[a] }
	asOf := func(b netaddr.Block) (uint32, bool) { return 42, true }
	usage := PublicDNSByAS(aff, ds, det, asOf, providerOf)
	pu := usage[42]
	if pu == nil {
		t.Fatal("AS 42 missing")
	}
	// Only cellBlock is cellular: 25000 DU split 0.5/0.3/0.2.
	if math.Abs(pu.Total-25000) > 1e-6 {
		t.Errorf("total = %g", pu.Total)
	}
	if got := pu.PublicShare(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("public share = %g, want 0.2", got)
	}
	if got := pu.ProviderShare("GoogleDNS"); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("google share = %g", got)
	}
	if got := pu.ProviderShare("OpenDNS"); got != 0 {
		t.Errorf("opendns share = %g", got)
	}
	if (&PublicUsage{ByProvider: map[string]float64{}}).PublicShare() != 0 {
		t.Error("empty usage share not 0")
	}
}

func TestPublicDNSByASSkipsUnmapped(t *testing.T) {
	aff, ds, det := fixture(t)
	usage := PublicDNSByAS(aff, ds, det,
		func(netaddr.Block) (uint32, bool) { return 0, false },
		func(netip.Addr) string { return "" })
	if len(usage) != 0 {
		t.Errorf("unmapped blocks created %d entries", len(usage))
	}
}

func TestKnownPublicResolvers(t *testing.T) {
	known := KnownPublicResolvers()
	if len(known) != 6 {
		t.Errorf("known resolvers = %d", len(known))
	}
	providers := map[string]int{}
	for _, p := range known {
		providers[p]++
	}
	for _, p := range []string{"GoogleDNS", "OpenDNS", "Level3"} {
		if providers[p] != 2 {
			t.Errorf("%s has %d addresses, want 2", p, providers[p])
		}
	}
}

// oracleResolverUsage and oraclePublicDNSByAS are the joins as they ran
// over the stored affinity map: its blocks sorted into canonical order,
// each looked up in DEMAND and skipped at zero DU. The Dataset walk must
// visit the same blocks in the same order, so every sum stays bit-equal.
func oracleResolverUsage(aff map[netaddr.Block][]world.ResolverWeight, ds *demand.Dataset, detected netaddr.Set) map[netip.Addr]*Usage {
	out := make(map[netip.Addr]*Usage)
	for _, block := range sortedBlocks(aff) {
		du := ds.DU(block)
		if du == 0 {
			continue
		}
		cell := detected.Has(block)
		for _, a := range aff[block] {
			u := out[a.Resolver.Addr]
			if u == nil {
				u = &Usage{}
				out[a.Resolver.Addr] = u
			}
			if cell {
				u.CellDU += du * a.Weight
			} else {
				u.FixedDU += du * a.Weight
			}
		}
	}
	return out
}

func oraclePublicDNSByAS(
	aff map[netaddr.Block][]world.ResolverWeight,
	ds *demand.Dataset,
	detected netaddr.Set,
	asOf func(netaddr.Block) (uint32, bool),
	providerOf func(netip.Addr) string,
) map[uint32]*PublicUsage {
	out := make(map[uint32]*PublicUsage)
	for _, block := range sortedBlocks(aff) {
		if !detected.Has(block) {
			continue
		}
		du := ds.DU(block)
		if du == 0 {
			continue
		}
		a, ok := asOf(block)
		if !ok {
			continue
		}
		pu := out[a]
		if pu == nil {
			pu = &PublicUsage{ByProvider: make(map[string]float64)}
			out[a] = pu
		}
		for _, assoc := range aff[block] {
			w := du * assoc.Weight
			pu.ByProvider[providerOf(assoc.Resolver.Addr)] += w
			pu.Total += w
		}
	}
	return out
}

func sortedBlocks(aff map[netaddr.Block][]world.ResolverWeight) []netaddr.Block {
	blocks := make([]netaddr.Block, 0, len(aff))
	for b := range aff {
		blocks = append(blocks, b)
	}
	netaddr.SortBlocks(blocks)
	return blocks
}

// TestJoinsMatchSortedMapWalk runs both joins on a Scale-0.01 world
// through World.AppendAffinity and compares them with the oracles over the
// same affinity stored as a map. The detected set adds the proxy and
// tether-heavy false positives to the true cellular blocks, so both labels
// and blocks without an affinity take part.
func TestJoinsMatchSortedMapWalk(t *testing.T) {
	cfg := world.DefaultConfig()
	cfg.Seed, cfg.Scale = 1, 0.01
	w, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := demand.Generate(w, demand.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	stored := make(map[netaddr.Block][]world.ResolverWeight)
	detected := make(netaddr.Set)
	for _, b := range w.Blocks {
		if ws := w.AppendAffinity(nil, b.Block); len(ws) > 0 {
			stored[b.Block] = ws
		}
		if b.Cellular || b.CellLabelProb > 0.5 {
			detected.Add(b.Block)
		}
	}
	asOf := func(b netaddr.Block) (uint32, bool) {
		bi := w.BlockIndex[b]
		if bi == nil {
			return 0, false
		}
		return bi.ASN, true
	}
	known := KnownPublicResolvers()
	providerOf := func(a netip.Addr) string { return known[a] }

	gotUsage := ResolverUsage(w.AppendAffinity, ds, detected)
	if len(gotUsage) == 0 {
		t.Fatal("no resolver usage")
	}
	if want := oracleResolverUsage(stored, ds, detected); !reflect.DeepEqual(gotUsage, want) {
		t.Errorf("ResolverUsage differs from the sorted-map walk (%d vs %d resolvers)", len(gotUsage), len(want))
	}
	gotPublic := PublicDNSByAS(w.AppendAffinity, ds, detected, asOf, providerOf)
	if len(gotPublic) == 0 {
		t.Fatal("no public-DNS usage")
	}
	if want := oraclePublicDNSByAS(stored, ds, detected, asOf, providerOf); !reflect.DeepEqual(gotPublic, want) {
		t.Errorf("PublicDNSByAS differs from the sorted-map walk (%d vs %d ASes)", len(gotPublic), len(want))
	}
}

// addrMapResolverUsage is ResolverUsage as it accumulated into a map keyed
// by resolver address, probed once per association.
func addrMapResolverUsage(aff Affinity, ds *demand.Dataset, detected netaddr.Set) map[netip.Addr]*Usage {
	out := make(map[netip.Addr]*Usage)
	var assocs []world.ResolverWeight
	ds.Each(func(block netaddr.Block, du float64) {
		if du == 0 {
			return
		}
		assocs = aff(assocs[:0], block)
		cell := detected.Has(block)
		for _, a := range assocs {
			u := out[a.Resolver.Addr]
			if u == nil {
				u = &Usage{}
				out[a.Resolver.Addr] = u
			}
			if cell {
				u.CellDU += du * a.Weight
			} else {
				u.FixedDU += du * a.Weight
			}
		}
	})
	return out
}

// sameUsage reports whether two usage maps hold the same resolvers with
// bit-identical sums.
func sameUsage(got, want map[netip.Addr]*Usage) bool {
	if len(got) != len(want) {
		return false
	}
	for a, w := range want {
		g := got[a]
		if g == nil || math.Float64bits(g.CellDU) != math.Float64bits(w.CellDU) ||
			math.Float64bits(g.FixedDU) != math.Float64bits(w.FixedDU) {
			return false
		}
	}
	return true
}

// TestResolverUsageMatchesAddrMapOracle compares ResolverUsage bitwise
// with the address-keyed map on Scale-0.005 worlds of seeds 1–3 generated
// at Parallelism 1 and 8, and on hand-built resolvers: a fresh
// *world.Resolver per association, so many pointers share one address,
// over enough addresses that the table of recently seen resolvers holds
// colliding entries.
func TestResolverUsageMatchesAddrMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, p := range []int{1, 8} {
			cfg := world.DefaultConfig()
			cfg.Seed, cfg.Scale, cfg.Parallelism = seed, 0.005, p
			w, err := world.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			dcfg := demand.DefaultGenConfig()
			dcfg.Seed, dcfg.Parallelism = seed, p
			ds, err := demand.Generate(w, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			detected := make(netaddr.Set)
			for _, b := range w.Blocks {
				if b.Cellular || b.CellLabelProb > 0.5 {
					detected.Add(b.Block)
				}
			}
			got := ResolverUsage(w.AppendAffinity, ds, detected)
			if want := addrMapResolverUsage(w.AppendAffinity, ds, detected); len(want) == 0 || !sameUsage(got, want) {
				t.Errorf("seed %d Parallelism %d: ResolverUsage differs from the address map (%d vs %d resolvers)",
					seed, p, len(got), len(want))
			}
		}
	}

	raw := make(map[netaddr.Block]float64)
	detected := make(netaddr.Set)
	for i := range 3000 {
		b := netaddr.V4Block(10, byte(i>>8), byte(i))
		raw[b] = float64(1 + i%7)
		if i%3 == 0 {
			detected.Add(b)
		}
	}
	ds, err := demand.NewDataset(raw)
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(n int) *world.Resolver {
		return &world.Resolver{Addr: netip.AddrFrom4([4]byte{5, byte(n >> 16), byte(n >> 8), byte(n)})}
	}
	aff := func(dst []world.ResolverWeight, b netaddr.Block) []world.ResolverWeight {
		k := int(b.Key())
		return append(dst,
			world.ResolverWeight{Resolver: resolver(k % 2048), Weight: 0.5},
			world.ResolverWeight{Resolver: resolver(k * 7 % 1500), Weight: 0.3},
			world.ResolverWeight{Resolver: resolver(k % 3), Weight: 0.2},
		)
	}
	got, want := ResolverUsage(aff, ds, detected), addrMapResolverUsage(aff, ds, detected)
	if len(want) < 2048 || !sameUsage(got, want) {
		t.Errorf("hand-built resolvers: ResolverUsage differs from the address map (%d vs %d resolvers)", len(got), len(want))
	}
	aff0, ds0, det0 := fixture(t)
	if got, want := ResolverUsage(aff0, ds0, det0), addrMapResolverUsage(aff0, ds0, det0); !sameUsage(got, want) {
		t.Error("fixture: ResolverUsage differs from the address map")
	}
}
