package world

import (
	"fmt"
	"math/rand/v2"

	"cellspot/internal/asn"
	"cellspot/internal/netaddr"
	"cellspot/internal/traffic"
)

// CaseStudyConfig parameterizes the three-carrier validation world.
type CaseStudyConfig struct {
	Seed uint64
}

// GenerateCaseStudy builds a paper-scale world containing only the three
// validation carriers of §4.2 plus a demand filler, so Table 3, Fig 3,
// Fig 6 and Fig 8 reproduce at the paper's absolute block counts without
// paying for a full-scale global world:
//
//   - Carrier A — large mixed European operator: 514 active cellular /24s
//     (24 CGNAT heavy hitters carrying 99.3%+ of cellular demand), ~4.6k
//     low-activity cellular blocks, ~89.6k fixed-line blocks.
//   - Carrier B — large dedicated U.S. MNO: ~2.97k cellular blocks, almost
//     all beacon-visible, plus ~2k idle inventory blocks (Fig 6a's 40%
//     zero-ratio space).
//   - Carrier C — large mixed Middle-East MNO: ~0.5k cellular blocks and
//     ~3k fixed blocks.
//
// Demand is denominated directly in Demand Units: the filler absorbs the
// rest of the platform's 100,000 DU so each carrier's absolute DU matches
// Table 3.
func GenerateCaseStudy(cs CaseStudyConfig) (*World, error) {
	cfg := DefaultConfig()
	cfg.Seed = cs.Seed
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(cs.Seed, 0xc0ffee_cafe)),
		nextASN: 64512,
		next24:  uint64(1) << 16,
		next48:  0x2001_0000_0000,
		w: &World{
			Config:     cfg,
			Countries:  cfg.Countries,
			BlockIndex: make(map[netaddr.Block]*BlockInfo),
		},
		duUnit: 1, // demand is denominated directly in DU
	}

	fr, ok := cfg.Countries.Lookup("FR")
	if !ok {
		return nil, fmt.Errorf("world: case study needs FR in the country table")
	}
	us, ok := cfg.Countries.Lookup("US")
	if !ok {
		return nil, fmt.Errorf("world: case study needs US in the country table")
	}
	sa, ok := cfg.Countries.Lookup("SA")
	if !ok {
		return nil, fmt.Errorf("world: case study needs SA in the country table")
	}

	// Carrier A: mixed European. Cellular 86.2 DU over 514 active + 4,608
	// low-activity blocks; fixed 1,306 DU over 89,553 blocks, 16 of which
	// are tether-heavy false-positive sources worth 0.142 DU.
	a := &Operator{
		AS:             g.newAS("CarrierA-MixedEU", fr.Code, asn.RoleMixedOperator),
		Country:        fr,
		PublicDNSShare: fr.PublicDNSShare,
	}
	g.w.Operators = append(g.w.Operators, a)
	g.w.CellOperators = append(g.w.CellOperators, a)
	g.genCellPlan(a, 86.2, 514, 0, planParams{
		// Carrier A's demand concentrates almost entirely behind its CGNAT
		// head (Fig 8: demand drops ~two orders of magnitude after the top
		// 24 blocks), so its FWA footprint is marginal.
		fwaFrac: 0.012, fwaDemandShare: 0.0005,
		lowFactor: 8.96, lowDemandShare: 0.176,
		heavyFrac: 24.0 / 490.0, heavyShare: 0.995,
	})
	g.genFixedArm(a, fr, 1306.36, 89537)
	g.addTetherHeavy(a, 16, 0.142)

	// Carrier B: dedicated U.S. MNO. 46 DU over 2,937 active blocks, 35
	// low-activity blocks (0.016 DU), ~2k idle blocks.
	b := &Operator{
		AS:             g.newAS("CarrierB-DedicatedUS", us.Code, asn.RoleDedicatedCellular),
		Country:        us,
		Dedicated:      true,
		PublicDNSShare: us.PublicDNSShare,
	}
	g.w.Operators = append(g.w.Operators, b)
	g.w.CellOperators = append(g.w.CellOperators, b)
	g.genCellPlan(b, 46.03, 2937, 0, planParams{
		fwaFrac: 0, fwaDemandShare: 0,
		lowFactor: 35.0 / 2937.0, lowDemandShare: 0.016 / 46.03,
		idleFrac:  0.40,
		heavyFrac: 0.02, heavyShare: 0.97,
	})

	// Carrier C: mixed Middle-East MNO. 10.94 DU cellular over 420 active
	// + 78 low-activity blocks; 43 DU fixed over 3,049 blocks, 5 of them
	// tether-heavy (0.17 DU).
	c := &Operator{
		AS:             g.newAS("CarrierC-MixedME", sa.Code, asn.RoleMixedOperator),
		Country:        sa,
		PublicDNSShare: sa.PublicDNSShare,
	}
	g.w.Operators = append(g.w.Operators, c)
	g.w.CellOperators = append(g.w.CellOperators, c)
	g.genCellPlan(c, 10.94, 420, 0, planParams{
		fwaFrac: 0.12, fwaDemandShare: 0.02,
		lowFactor: 78.0 / 420.0, lowDemandShare: 0.15 / 10.94,
		heavyFrac: 0.05, heavyShare: 0.99,
	})
	g.genFixedArm(c, sa, 42.85, 3044)
	g.addTetherHeavy(c, 5, 0.17)

	// Filler: the rest of the platform's demand, beacon-less so the three
	// carriers own the entire BEACON dataset.
	filler := &Operator{
		AS:      g.newAS("RestOfPlatform", "US", asn.RoleContent),
		Country: us,
	}
	g.w.Operators = append(g.w.Operators, filler)
	used := 0.0
	for _, bi := range g.w.Blocks {
		used += bi.Demand
	}
	g.genBeaconless(filler, 100000-used, 2000)

	reg, err := g.registry()
	if err != nil {
		return nil, err
	}
	g.w.Registry = reg
	g.w.Snapshot = asn.BuildSnapshot(reg)
	g.genResolvers()

	g.w.CarrierA, g.w.CarrierB, g.w.CarrierC = a, b, c
	total := 0.0
	for _, bi := range g.w.Blocks {
		total += bi.Demand
	}
	g.w.TotalDemand = total
	return g.w, nil
}

// addTetherHeavy appends fixed-line blocks whose beacon labels skew
// cellular (offices full of tethered laptops): the false-positive sources
// in the carriers' ground truth.
func (g *generator) addTetherHeavy(op *Operator, n int, totalDemand float64) {
	weights := traffic.GradualSplit(g.rng, n)
	for i, b := range g.alloc24(n) {
		g.addBlock(op, BlockInfo{
			Block:         b,
			Cellular:      false,
			WebActive:     true,
			Demand:        totalDemand * weights[i],
			CellLabelProb: 0.65 + 0.2*g.rng.Float64(),
		})
	}
}
