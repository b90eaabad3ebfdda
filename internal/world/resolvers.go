package world

import (
	"net/netip"

	"cellspot/internal/asn"
	"cellspot/internal/netaddr"
)

// Public DNS providers modelled after the paper's Fig 10: GoogleDNS,
// OpenDNS and Level3.
var publicProviders = []struct {
	name  string
	asnum uint32
	addrs []string
}{
	{"GoogleDNS", 15169, []string{"8.8.8.8", "8.8.4.4"}},
	{"OpenDNS", 36692, []string{"208.67.222.222", "208.67.220.220"}},
	{"Level3", 3356, []string{"4.2.2.1", "4.2.2.2"}},
}

// providerMix returns the per-country split of public-DNS demand across the
// three providers. The global base is Google-heavy; a deterministic
// country-keyed rotation varies the mix the way Fig 10 shows.
func providerMix(cc string) [3]float64 {
	base := [3]float64{0.60, 0.25, 0.15}
	if len(cc) == 2 {
		switch (int(cc[0]) + int(cc[1])) % 3 {
		case 1:
			base = [3]float64{0.45, 0.40, 0.15}
		case 2:
			base = [3]float64{0.70, 0.12, 0.18}
		}
	}
	return base
}

// genResolvers creates public resolvers, per-operator resolver fleets, and
// the resolver plan every demand-carrying block of an access operator
// derives its affinity from (World.AppendAffinity). Mixed operators share
// ~60% of their resolvers between cellular and fixed-line customers (paper
// Fig 9); the remainder split evenly into cellular-only and fixed-only.
func (g *generator) genResolvers() {
	newResolver := func(r Resolver) *Resolver {
		rp := &r
		g.w.Resolvers = append(g.w.Resolvers, rp)
		return rp
	}

	g.w.publicDNS = make([][]*Resolver, len(publicProviders))
	for pi, p := range publicProviders {
		for _, a := range p.addrs {
			r := newResolver(Resolver{
				Addr: netip.MustParseAddr(a), ASN: p.asnum,
				Public: true, Provider: p.name,
				ServesCell: true, ServesFixed: true,
			})
			g.w.publicDNS[pi] = append(g.w.publicDNS[pi], r)
		}
	}

	g.w.dnsPlans = make(map[uint32]*dnsPlan)
	for _, op := range g.w.Operators {
		if !op.AS.Role.IsCellularAccess() && op.AS.Role != asn.RoleFixedISP {
			continue
		}
		demandDU := (op.CellDemand + op.FixedDemand) / g.duUnit
		n := 2 + int(demandDU/400)
		if n > 24 {
			n = 24
		}
		nShared := int(0.6*float64(n) + 0.5)
		if nShared < 1 {
			nShared = 1
		}
		resolvers := make([]*Resolver, 0, n)
		for i := 0; i < n; i++ {
			r := Resolver{ASN: op.AS.Number}
			switch op.AS.Role {
			case asn.RoleFixedISP:
				r.ServesFixed = true
			case asn.RoleDedicatedCellular:
				r.ServesCell = true
			default: // mixed: ~60% shared, rest split evenly
				switch {
				case i < nShared:
					r.ServesCell, r.ServesFixed = true, true
				case (i-nShared)%2 == 0:
					r.ServesCell = true
				default:
					r.ServesFixed = true
				}
			}
			// Resolver addresses live in operator infrastructure space:
			// a fresh /24 per pair of resolvers keeps them realistic
			// without polluting the client-block census.
			if i%2 == 0 {
				infra := g.alloc24(1)[0]
				r.Addr = infra.HostAddr(uint64(10 + i))
			} else {
				r.Addr = resolvers[i-1].Addr.Next()
			}
			resolvers = append(resolvers, newResolver(r))
		}
		op.Resolvers = resolvers
		g.w.dnsPlans[op.AS.Number] = newDNSPlan(op)
	}
	g.w.resolverAS = &resolverIndex{}
}

// dnsPlan is what an access operator's blocks derive their resolver
// affinity from: a public-DNS share split across providers by the
// country's mix, the rest to two resolvers of the pool serving the
// block's access type.
type dnsPlan struct {
	cell, fixed []*Resolver // never empty: each falls back to the whole fleet
	publicShare float64     // the public-DNS share of cellular blocks
	mix         [3]float64  // providerMix of the operator's country
}

// newDNSPlan splits an operator's resolver fleet into its cell-capable and
// fixed-capable pools.
func newDNSPlan(op *Operator) *dnsPlan {
	p := &dnsPlan{publicShare: op.PublicDNSShare, mix: providerMix(op.AS.Country)}
	for _, r := range op.Resolvers {
		if r.ServesCell {
			p.cell = append(p.cell, r)
		}
		if r.ServesFixed {
			p.fixed = append(p.fixed, r)
		}
	}
	if len(p.cell) == 0 {
		p.cell = op.Resolvers
	}
	if len(p.fixed) == 0 {
		p.fixed = op.Resolvers
	}
	return p
}

// AppendAffinity appends block b's resolver affinity to dst and returns
// the extended slice: the fraction of b's resolutions each resolver
// handles. Only demand-carrying blocks of access operators have one; any
// other block appends nothing. The weights are derived on each call from
// the block's key, its Cellular flag and its operator's resolver plan, so
// no per-block affinity is stored and no randomness is drawn.
func (w *World) AppendAffinity(dst []ResolverWeight, b netaddr.Block) []ResolverWeight {
	bi := w.BlockIndex[b]
	if bi == nil || bi.Demand <= 0 {
		return dst
	}
	p := w.dnsPlans[bi.ASN]
	if p == nil {
		return dst
	}
	key := int(bi.Block.Key())
	pub := 0.05 // broadband users switching resolvers individually
	pool := p.fixed
	if bi.Cellular {
		pub = p.publicShare // cell implies operator adoption
		pool = p.cell
	}
	if pub > 0 {
		for pi, prs := range w.publicDNS {
			wt := pub * p.mix[pi]
			if wt <= 0 || len(prs) == 0 {
				continue
			}
			dst = append(dst, ResolverWeight{Resolver: prs[key%len(prs)], Weight: wt})
		}
	}
	own := 1 - pub
	primary := pool[key%len(pool)]
	if len(pool) == 1 {
		return append(dst, ResolverWeight{Resolver: primary, Weight: own})
	}
	secondary := pool[(key+1)%len(pool)]
	return append(dst,
		ResolverWeight{Resolver: primary, Weight: own * 0.7},
		ResolverWeight{Resolver: secondary, Weight: own * 0.3},
	)
}

// pickCarriers selects the three named validation operators: the largest
// mixed European operator (Carrier A), the largest dedicated U.S. operator
// (Carrier B), and the largest mixed Middle-East operator (Carrier C).
func (g *generator) pickCarriers() {
	var bestA, bestB, bestC *Operator
	for _, op := range g.w.CellOperators {
		switch {
		case op.Country.Continent.String() == "EU" && !op.Dedicated:
			if bestA == nil || op.CellDemand > bestA.CellDemand {
				bestA = op
			}
		case op.Country.Code == "US" && op.Dedicated:
			if bestB == nil || op.CellDemand > bestB.CellDemand {
				bestB = op
			}
		case isMiddleEast(op.Country.Code) && !op.Dedicated:
			if bestC == nil || op.CellDemand > bestC.CellDemand {
				bestC = op
			}
		}
	}
	g.w.CarrierA, g.w.CarrierB, g.w.CarrierC = bestA, bestB, bestC
}

// isMiddleEast reports membership in the paper's informal "middle east"
// region for Carrier C selection.
func isMiddleEast(cc string) bool {
	switch cc {
	case "SA", "AE", "KW", "QA", "OM", "BH", "JO", "LB", "IQ", "IL":
		return true
	}
	return false
}
