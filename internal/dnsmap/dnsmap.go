// Package dnsmap analyzes DNS resolver usage (paper §6.3): it joins
// client-to-resolver affinities (the Chen-et-al-style weighted association
// a CDN derives from its DNS and HTTP logs) with the DEMAND dataset and the
// classifier's subnet labels to compute each resolver's cellular demand
// fraction (Fig 9) and each operator's public-DNS usage (Fig 10).
package dnsmap

import (
	"encoding/binary"
	"maps"
	"net/netip"
	"slices"
	"sort"

	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// Affinity appends a client block's resolver association weights to dst
// and returns the extended slice; a block without any appends nothing. The
// pipeline passes World.AppendAffinity, which derives them on request, or
// for ResolverUsage a world.Cursor's, which finds each block by stepping
// through the world in the walk's canonical order. Weights per block are
// expected to sum to ~1.
type Affinity func(dst []world.ResolverWeight, b netaddr.Block) []world.ResolverWeight

// Usage accumulates the demand a resolver serves, split by the client
// block's classifier label.
type Usage struct {
	CellDU  float64
	FixedDU float64
}

// Total returns the resolver's total demand.
func (u Usage) Total() float64 { return u.CellDU + u.FixedDU }

// CellFraction returns the share of the resolver's demand from
// cellular-labeled blocks; 0 for an idle resolver.
func (u Usage) CellFraction() float64 {
	t := u.Total()
	if t == 0 {
		return 0
	}
	return u.CellDU / t
}

// ResolverUsage joins affinity, demand, and subnet labels into per-resolver
// usage. It walks the DEMAND dataset in canonical block order, so the
// per-resolver floating-point sums are reproducible run to run. Sums
// accumulate in a slice indexed by a dense number per address. A table of
// recently seen resolvers, slotted by the address's low bits, gives an
// association its number after one pointer compare; only a miss probes
// the address-keyed map. Resolvers that share an address share the
// number, and so the sum.
func ResolverUsage(aff Affinity, ds *demand.Dataset, detected netaddr.Set) map[netip.Addr]*Usage {
	var (
		addrs  []netip.Addr // dense number → address
		sums   []Usage      // dense number → usage
		byAddr = make(map[netip.Addr]int32)
		seen   [resolverSlots]resolverSlot
		assocs []world.ResolverWeight
	)
	cellular := detected.Ascending()
	ds.Each(func(block netaddr.Block, du float64) {
		if du == 0 {
			return
		}
		assocs = aff(assocs[:0], block)
		cell := cellular(block)
		for _, a := range assocs {
			slot := &seen[resolverSlotOf(a.Resolver.Addr)]
			i := slot.i
			if slot.r != a.Resolver {
				var ok bool
				if i, ok = byAddr[a.Resolver.Addr]; !ok {
					i = int32(len(sums))
					byAddr[a.Resolver.Addr] = i
					addrs = append(addrs, a.Resolver.Addr)
					sums = append(sums, Usage{})
				}
				*slot = resolverSlot{a.Resolver, i}
			}
			if cell {
				sums[i].CellDU += du * a.Weight
			} else {
				sums[i].FixedDU += du * a.Weight
			}
		}
	})
	out := make(map[netip.Addr]*Usage, len(sums))
	for i, addr := range addrs {
		out[addr] = &sums[i]
	}
	return out
}

// resolverSlots is the size of ResolverUsage's direct-mapped table of
// recently seen resolvers.
const resolverSlots = 1 << 10

// resolverSlot remembers one resolver's dense number.
type resolverSlot struct {
	r *world.Resolver
	i int32
}

// resolverSlotOf picks an address's slot from its low 64 bits.
func resolverSlotOf(a netip.Addr) uint64 {
	b := a.As16()
	lo := binary.BigEndian.Uint64(b[8:])
	return (lo * 0x9e3779b97f4a7c15) >> (64 - 10)
}

// CellFractions returns the sorted cellular demand fractions of every
// resolver that (a) belongs to one of the given ASes per resolverAS and
// (b) serves any demand — the Fig 9 distribution when the AS set is the
// identified mixed cellular ASes.
func CellFractions(usage map[netip.Addr]*Usage, resolverAS func(netip.Addr) (uint32, bool), ases map[uint32]bool) []float64 {
	var out []float64
	for addr, u := range usage {
		if u.Total() == 0 {
			continue
		}
		a, ok := resolverAS(addr)
		if !ok || !ases[a] {
			continue
		}
		out = append(out, u.CellFraction())
	}
	sort.Float64s(out)
	return out
}

// SharedStats summarizes resolver sharing in mixed networks: how many
// resolvers serve both classes vs one (using demand-fraction cutoffs, since
// the measurement side sees only traffic, not assignments).
type SharedStats struct {
	Shared, CellOnly, FixedOnly int
}

// ClassifySharing buckets resolver cell-fractions: below lo ⇒ fixed-only,
// above hi ⇒ cellular-only, otherwise shared. The paper reads Fig 9 with
// roughly lo=0.03, hi=0.97.
func ClassifySharing(fracs []float64, lo, hi float64) SharedStats {
	var s SharedStats
	for _, f := range fracs {
		switch {
		case f < lo:
			s.FixedOnly++
		case f > hi:
			s.CellOnly++
		default:
			s.Shared++
		}
	}
	return s
}

// PublicUsage tallies an AS's cellular demand by resolving service.
type PublicUsage struct {
	ByProvider map[string]float64 // provider → DU ("" = operator resolvers)
	Total      float64
}

// PublicShare returns the fraction of the AS's cellular demand resolved
// through any named public provider.
func (p *PublicUsage) PublicShare() float64 {
	if p.Total == 0 {
		return 0
	}
	pub := 0.0
	for _, prov := range slices.Sorted(maps.Keys(p.ByProvider)) { // reproducible share accumulation order
		if prov != "" {
			pub += p.ByProvider[prov]
		}
	}
	return pub / p.Total
}

// ProviderShare returns one provider's fraction of the AS's cellular
// demand.
func (p *PublicUsage) ProviderShare(provider string) float64 {
	if p.Total == 0 {
		return 0
	}
	return p.ByProvider[provider] / p.Total
}

// PublicDNSByAS computes, per client AS, where its cellular-labeled demand
// resolves: operator resolvers or a named public service (Fig 10).
// providerOf identifies well-known public resolver addresses (a public
// list); asOf maps client blocks to ASes.
func PublicDNSByAS(
	aff Affinity,
	ds *demand.Dataset,
	detected netaddr.Set,
	asOf func(netaddr.Block) (uint32, bool),
	providerOf func(netip.Addr) string,
) map[uint32]*PublicUsage {
	out := make(map[uint32]*PublicUsage)
	var assocs []world.ResolverWeight
	cellular := detected.Ascending()
	ds.Each(func(block netaddr.Block, du float64) {
		if du == 0 || !cellular(block) {
			return // Fig 10 covers cellular client demand
		}
		if assocs = aff(assocs[:0], block); len(assocs) == 0 {
			return
		}
		a, ok := asOf(block)
		if !ok {
			return
		}
		pu := out[a]
		if pu == nil {
			pu = &PublicUsage{ByProvider: make(map[string]float64)}
			out[a] = pu
		}
		for _, assoc := range assocs {
			w := du * assoc.Weight
			pu.ByProvider[providerOf(assoc.Resolver.Addr)] += w
			pu.Total += w
		}
	})
	return out
}

// KnownPublicResolvers returns the well-known public resolver addresses and
// their service names used by providerOf in the reproduction (GoogleDNS,
// OpenDNS, Level3 — the services the paper measures).
func KnownPublicResolvers() map[netip.Addr]string {
	return map[netip.Addr]string{
		netip.MustParseAddr("8.8.8.8"):        "GoogleDNS",
		netip.MustParseAddr("8.8.4.4"):        "GoogleDNS",
		netip.MustParseAddr("208.67.222.222"): "OpenDNS",
		netip.MustParseAddr("208.67.220.220"): "OpenDNS",
		netip.MustParseAddr("4.2.2.1"):        "Level3",
		netip.MustParseAddr("4.2.2.2"):        "Level3",
	}
}
