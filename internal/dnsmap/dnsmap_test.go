package dnsmap

import (
	"math"
	"net/netip"
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

func fixture(t *testing.T) (Affinity, *demand.Dataset, netaddr.Set) {
	t.Helper()
	aff := Affinity{
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
	}
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
