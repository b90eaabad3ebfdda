package world

import (
	"fmt"
	"math"

	"cellspot/internal/asn"
	"cellspot/internal/geo"
	"cellspot/internal/traffic"
)

// genNoiseASes creates the three families of networks that make the
// straw-man "any AS with one cellular block" tagging wrong (paper §5,
// Table 5):
//
//   - stray-tether ASes: ordinary networks where a handful of beacon hits
//     carry cellular labels (an office with an LTE-dongle user); their
//     cellular demand is far below 0.1 DU, so filter rule 1 removes them.
//   - IoT/M2M cellular ASes: genuine cellular networks with real platform
//     demand but almost no browser traffic; rule 2 (<300 beacon hits)
//     removes them.
//   - proxy/cloud/VPN ASes: Google/Opera-style performance proxies and
//     cloud hosts whose egress blocks inherit their mobile clients'
//     connection labels; they carry plenty of demand and hits, and only
//     rule 3 (CAIDA class) removes them.
func (g *generator) genNoiseASes() {
	cfg := g.cfg
	countries := g.weightedCountries()
	duUnit := g.duUnit

	for i := 0; i < cfg.StrayASes; i++ {
		c := countries[g.rng.IntN(len(countries))]
		op := &Operator{
			AS:      g.newAS(fmt.Sprintf("Stray-%s-%d", c.Code, i+1), c.Code, g.strayRole(i)),
			Country: c,
		}
		g.w.Operators = append(g.w.Operators, op)
		// One ordinary fixed block plus one block whose few enabled hits
		// are cellular-labeled. Total cellular demand stays below 0.1 DU.
		blocks := g.alloc24(2)
		g.addBlock(op, BlockInfo{
			Block:         blocks[0],
			WebActive:     true,
			Demand:        duUnit * (0.2 + 0.6*g.rng.Float64()),
			CellLabelProb: 0.002,
		})
		g.addBlock(op, BlockInfo{
			Block:         blocks[1],
			WebActive:     true,
			Demand:        duUnit * 0.0002 * math.Pow(10, 2*g.rng.Float64()),
			CellLabelProb: 0.95,
			HitsOverride:  int32(1 + g.rng.IntN(3)),
		})
	}

	for i := 0; i < cfg.IoTASes; i++ {
		c := countries[g.rng.IntN(len(countries))]
		op := &Operator{
			AS:        g.newAS(fmt.Sprintf("M2M-%s-%d", c.Code, i+1), c.Code, asn.RoleDedicatedCellular),
			Country:   c,
			Dedicated: true,
		}
		g.w.Operators = append(g.w.Operators, op)
		blocks := g.alloc24(2)
		// The beacon-visible block clears rule 1's demand bar on its own.
		g.addBlock(op, BlockInfo{
			Block:         blocks[0],
			Cellular:      true,
			WebActive:     true,
			Demand:        duUnit * (0.12 + 0.15*g.rng.Float64()),
			CellLabelProb: 0.9,
			HitsOverride:  int32(1 + g.rng.IntN(2)),
		})
		g.addBlock(op, BlockInfo{
			Block:     blocks[1],
			Cellular:  true,
			WebActive: false,
			Demand:    duUnit * (0.05 + 0.2*g.rng.Float64()),
		})
	}

	for i := 0; i < cfg.ProxyASes; i++ {
		// Proxies cluster in large hosting markets.
		c := countries[0] // most demand-heavy country
		if g.rng.Float64() < 0.4 {
			c = countries[g.rng.IntN(len(countries))]
		}
		role := asn.RoleProxyService
		name := fmt.Sprintf("MobileProxy-%d", i+1)
		switch i % 3 {
		case 1:
			role = asn.RoleCloudHosting
			name = fmt.Sprintf("CloudHost-%d", i+1)
		case 2:
			role = asn.RoleVPNService
			name = fmt.Sprintf("MobileVPN-%d", i+1)
		}
		op := &Operator{
			AS:      g.newAS(name, c.Code, role),
			Country: c,
		}
		// VPN egress rents enterprise space but must still die on rule 3:
		// the paper filters Content and unknown-class ASes. Model VPNs as
		// absent from the CAIDA snapshot (unknown class).
		if role == asn.RoleVPNService {
			op.AS.Class = asn.ClassUnknown
		}
		g.w.Operators = append(g.w.Operators, op)
		n := 5 + g.rng.IntN(26)
		weights := traffic.GradualSplit(g.rng, n)
		demand := duUnit * (10 + 50*g.rng.Float64()) // 0.01%..0.06% of global
		for j, b := range g.alloc24(n) {
			g.addBlock(op, BlockInfo{
				Block:         b,
				Cellular:      false, // egress is in a datacenter
				WebActive:     true,
				Demand:        demand * weights[j],
				CellLabelProb: 0.5 + 0.35*g.rng.Float64(),
			})
		}
	}
}

// maxNoiseBlocks bounds the blocks genNoiseASes adds: two per stray and
// IoT AS, and at most 30 per proxy AS.
func maxNoiseBlocks(cfg Config) int {
	return 2*cfg.StrayASes + 2*cfg.IoTASes + 30*cfg.ProxyASes
}

// strayRole cycles stray ASes through access-ish classes so rule 3 cannot
// catch them — only rule 1 does.
func (g *generator) strayRole(i int) asn.Role {
	if i%3 == 0 {
		return asn.RoleEnterprise
	}
	return asn.RoleFixedISP
}

// weightedCountries returns countries ordered by descending demand share,
// for noise placement.
func (g *generator) weightedCountries() []*geo.Country {
	all := g.cfg.Countries.All()
	out := make([]*geo.Country, 0, len(all))
	for _, c := range all {
		if c.DemandShare > 0 {
			out = append(out, c)
		}
	}
	// Selection sort by demand desc, stable on code for determinism.
	for i := 0; i < len(out); i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if out[j].DemandShare > out[best].DemandShare {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out
}
