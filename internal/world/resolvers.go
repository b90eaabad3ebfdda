package world

import (
	"net/netip"

	"cellspot/internal/asn"
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
// the block→resolver affinity for every demand-carrying block of an access
// operator. Mixed operators share ~60% of their resolvers between cellular
// and fixed-line customers (paper Fig 9); the remainder split evenly into
// cellular-only and fixed-only.
func (g *generator) genResolvers() {
	newResolver := func(r Resolver) *Resolver {
		rp := &r
		g.w.Resolvers = append(g.w.Resolvers, rp)
		return rp
	}

	publicByProvider := make(map[string][]*Resolver, 3)
	for _, p := range publicProviders {
		for _, a := range p.addrs {
			r := newResolver(Resolver{
				Addr: netip.MustParseAddr(a), ASN: p.asnum,
				Public: true, Provider: p.name,
				ServesCell: true, ServesFixed: true,
			})
			publicByProvider[p.name] = append(publicByProvider[p.name], r)
		}
	}

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
		g.assignAffinity(op, resolvers, publicByProvider)
	}
}

// assignAffinity wires each of the operator's demand-carrying blocks to
// resolvers: a public-DNS share split across providers, the rest to two of
// the operator's own resolvers chosen deterministically per block.
func (g *generator) assignAffinity(op *Operator, resolvers []*Resolver, publicByProvider map[string][]*Resolver) {
	var cellCapable, fixedCapable []*Resolver
	for _, r := range resolvers {
		if r.ServesCell {
			cellCapable = append(cellCapable, r)
		}
		if r.ServesFixed {
			fixedCapable = append(fixedCapable, r)
		}
	}
	mix := providerMix(op.AS.Country)

	for _, b := range op.Blocks {
		if b.Demand <= 0 {
			continue
		}
		pub := 0.05 // broadband users switching resolvers individually
		if b.Cellular {
			pub = op.PublicDNSShare // cell implies operator adoption
		}
		pool := fixedCapable
		if b.Cellular {
			pool = cellCapable
		}
		if len(pool) == 0 {
			pool = resolvers
		}
		var weights []ResolverWeight
		if pub > 0 {
			for pi, p := range publicProviders {
				prs := publicByProvider[p.name]
				w := pub * mix[pi]
				if w <= 0 || len(prs) == 0 {
					continue
				}
				r := prs[int(b.Block.Key())%len(prs)]
				weights = append(weights, ResolverWeight{Resolver: r, Weight: w})
			}
		}
		own := 1 - pub
		primary := pool[int(b.Block.Key())%len(pool)]
		if len(pool) == 1 {
			weights = append(weights, ResolverWeight{Resolver: primary, Weight: own})
		} else {
			secondary := pool[int(b.Block.Key()+1)%len(pool)]
			weights = append(weights,
				ResolverWeight{Resolver: primary, Weight: own * 0.7},
				ResolverWeight{Resolver: secondary, Weight: own * 0.3},
			)
		}
		g.w.Affinity[b.Block] = weights
	}
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
