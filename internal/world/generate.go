package world

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"

	"cellspot/internal/asn"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/par"
	"cellspot/internal/traffic"
)

// Per-stage RNG stream constants. Every shard of world generation derives
// its stream as PCG(cfg.Seed, streamConst^shardIndex), so shard outputs are
// functions of (seed, shard) alone — never of scheduling or worker count.
const (
	countryStream = 0x9e3779b97f4a7c15 // one shard per country
	noiseStream   = 0x6e015e_0001      // serial noise-AS stage
)

// generator carries allocation state during world construction. A
// generator is either the merged global one or a per-country fragment;
// fragments allocate ASNs and block keys from their own local sequences,
// which absorb renumbers into the global sequence at merge time.
type generator struct {
	cfg Config
	rng *rand.Rand
	w   *World

	nextASN uint32
	next24  uint64 // next /24 key to hand out
	next48  uint64 // next /48 key to hand out

	ases   []*asn.AS
	duUnit float64 // demand units per Demand Unit (1 DU = 0.001% of global)

	// chunk holds the BlockInfo values addBlock hands out pointers to,
	// many blocks per allocation; it is replaced when full, never grown,
	// so those pointers stay valid. nextChunk is the next one's size: a
	// fragment's first chunk takes its country's whole block budget.
	chunk     []BlockInfo
	nextChunk int
}

// minChunk is the size of a chunk of blocks once a generator has used up
// its first, budget-sized one: small, since a chunk's unused tail is
// allocated for nothing.
const minChunk = 16

// Generate builds the global synthetic world. Country generation shards
// across cfg.Parallelism workers (0 = GOMAXPROCS, 1 = serial): each country
// draws from its own PCG stream and fragments merge in country order, so
// the world is bit-identical at every parallelism level.
func Generate(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	duUnit := cfg.Countries.TotalDemandShare() / 100000
	budgets := (&generator{cfg: cfg}).countryBudgets()

	// Shard 1: one fragment per country, each on an independent stream
	// with local ASN/address sequences.
	countries := cfg.Countries.All()
	frags := make([]*generator, len(countries))
	par.Do(len(countries), cfg.Parallelism, func(i int) {
		f := newFragment(cfg, rand.New(rand.NewPCG(cfg.Seed, countryStream^uint64(i))), duUnit)
		budget := budgets[countries[i].Code]
		f.nextChunk = budget.blocks()
		f.genCountry(countries[i], budget)
		frags[i] = f
	})

	// Merge in country order, then run the serial tail stages (noise ASes,
	// resolvers, carrier selection) on their own streams. The index is
	// sized for the fragments' blocks and the block list for those and
	// the most the noise ASes can add.
	nBlocks := 0
	for _, f := range frags {
		nBlocks += len(f.w.Blocks)
	}
	g := &generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewPCG(cfg.Seed, noiseStream)),
		nextASN: 1000,
		next24:  uint64(1) << 16, // start at 1.0.0.0/24
		next48:  0x2001_0000_0000,
		duUnit:  duUnit,
		w: &World{
			Config:     cfg,
			Countries:  cfg.Countries,
			Blocks:     make([]*BlockInfo, 0, nBlocks+maxNoiseBlocks(cfg)),
			BlockIndex: make(map[netaddr.Block]*BlockInfo, nBlocks),
		},
	}
	for _, f := range frags {
		g.absorb(f)
	}
	g.genNoiseASes()
	g.genResolvers()

	reg, err := g.registry()
	if err != nil {
		return nil, err
	}
	g.w.Registry = reg
	// CAIDA-style coverage of access networks is effectively complete; the
	// snapshot's incompleteness is modelled on the noise ASes (VPN egress
	// carries no class), so rule 3 removes proxies without collateral.
	g.w.Snapshot = asn.BuildSnapshot(reg)
	g.pickCarriers()

	total := 0.0
	for _, b := range g.w.Blocks {
		total += b.Demand
	}
	g.w.TotalDemand = total
	return g.w, nil
}

// newFragment returns a per-country generator with local ASN and address
// sequences. Fragment keys and ASNs are placeholders: absorb rewrites them
// into the global sequences, so only their allocation order matters.
func newFragment(cfg Config, rng *rand.Rand, duUnit float64) *generator {
	return &generator{
		cfg:     cfg,
		rng:     rng,
		nextASN: 1,
		next24:  uint64(1) << 16,
		next48:  0x2001_0000_0000,
		duUnit:  duUnit,
		w:       &World{Config: cfg, Countries: cfg.Countries},
	}
}

// absorb renumbers a fragment's ASes and blocks into the global sequences
// and appends its operators and blocks in fragment order. Because fragments
// are absorbed in country order and each fragment's internal order is
// deterministic, the merged world is independent of how (or whether) the
// fragments ran concurrently.
func (g *generator) absorb(f *generator) {
	asnMap := make(map[uint32]uint32, len(f.ases))
	for _, a := range f.ases {
		old := a.Number
		a.Number = g.nextASN
		g.nextASN++
		asnMap[old] = a.Number
		g.ases = append(g.ases, a)
	}
	for _, bi := range f.w.Blocks {
		if bi.Block.IsV6() {
			bi.Block = g.next48Block()
		} else {
			bi.Block = g.next24Block()
		}
		bi.ASN = asnMap[bi.ASN]
		g.w.Blocks = append(g.w.Blocks, bi)
		g.w.BlockIndex[bi.Block] = bi
	}
	g.w.Operators = append(g.w.Operators, f.w.Operators...)
	g.w.CellOperators = append(g.w.CellOperators, f.w.CellOperators...)
}

// registry builds the AS registry from the minted AS set.
func (g *generator) registry() (*asn.Registry, error) {
	vals := make([]asn.AS, len(g.ases))
	for i, a := range g.ases {
		vals[i] = *a
	}
	reg, err := asn.NewRegistry(vals)
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	return reg, nil
}

// blockBudget is the per-country block allocation.
type blockBudget struct {
	cell24, fixed24, demandOnly24 int
	cell48, fixed48               int
}

// blocks is the budget's total block count. Operators' minimum sizes can
// take a country past it.
func (b blockBudget) blocks() int {
	return b.cell24 + b.fixed24 + b.demandOnly24 + b.cell48 + b.fixed48
}

// apportion splits total into integer shares proportional to weights using
// the largest-remainder method. Zero-weight entries get zero.
func apportion(total int, weights []float64) []int {
	out := make([]int, len(weights))
	if total <= 0 || len(weights) == 0 {
		return out
	}
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		return out
	}
	type frac struct {
		i int
		f float64
	}
	rem := total
	fracs := make([]frac, 0, len(weights))
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(total) * w / sum
		fl := int(exact)
		out[i] = fl
		rem -= fl
		fracs = append(fracs, frac{i, exact - float64(fl)})
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].i < fracs[b].i
	})
	for k := 0; k < rem && k < len(fracs); k++ {
		out[fracs[k].i]++
	}
	return out
}

// countryBudgets scales the paper's per-continent block census down by
// cfg.Scale and apportions it to countries: cellular blocks follow mobile
// subscriptions, fixed and demand-only blocks follow demand share.
func (g *generator) countryBudgets() map[string]blockBudget {
	out := make(map[string]blockBudget)
	db := g.cfg.Countries
	totalFixedWeight := 0.0
	for _, c := range db.All() {
		totalFixedWeight += c.DemandShare
	}
	for _, ct := range geo.Continents() {
		countries := db.ByContinent(ct)
		cb := continentBlocks[ct]
		subs := make([]float64, len(countries))
		dem := make([]float64, len(countries))
		v6subs := make([]float64, len(countries))
		for i, c := range countries {
			subs[i] = c.SubscribersM
			dem[i] = c.DemandShare
			if c.IPv6ASes > 0 {
				v6subs[i] = c.SubscribersM
			}
		}
		scale := func(n int) int { return int(float64(n)*g.cfg.Scale + 0.5) }
		cell24s := apportion(scale(cb.cell24), subs)
		fixed24s := apportion(scale(cb.active24-cb.cell24), dem)
		cell48s := apportion(scale(cb.cell48), v6subs)
		fixed48s := apportion(scale(cb.active48-cb.cell48), dem)
		for i, c := range countries {
			out[c.Code] = blockBudget{
				cell24:  cell24s[i],
				fixed24: fixed24s[i],
				cell48:  cell48s[i],
				fixed48: fixed48s[i],
			}
		}
	}
	// Demand-only blocks are global, apportioned by demand share.
	all := db.All()
	dem := make([]float64, len(all))
	for i, c := range all {
		dem[i] = c.DemandShare
	}
	extras := apportion(int(float64(DemandOnlyExtra24)*g.cfg.Scale+0.5), dem)
	for i, c := range all {
		b := out[c.Code]
		b.demandOnly24 = extras[i]
		out[c.Code] = b
	}
	return out
}

// next24Block hands out the next /24 block, skipping reserved space.
func (g *generator) next24Block() netaddr.Block {
	for {
		key := g.next24
		g.next24++
		first := byte(key >> 16)
		switch {
		case first == 0, first == 10, first == 127, first == 100,
			first == 169, first == 172, first == 192, first == 198,
			first == 203, first >= 224:
			// Skip space with reserved carve-outs entirely; the synthetic
			// Internet has room to spare.
			g.next24 = (uint64(first) + 1) << 16
			continue
		}
		return netaddr.MakeBlock(netaddr.IPv4, key)
	}
}

// alloc24 hands out n consecutive-ish /24 blocks, skipping reserved space.
func (g *generator) alloc24(n int) []netaddr.Block {
	out := make([]netaddr.Block, 0, n)
	for len(out) < n {
		out = append(out, g.next24Block())
	}
	return out
}

// next48Block hands out the next /48 block under 2001::/16.
func (g *generator) next48Block() netaddr.Block {
	b := netaddr.MakeBlock(netaddr.IPv6, g.next48)
	g.next48++
	return b
}

// alloc48 hands out n consecutive /48 blocks under 2001::/16.
func (g *generator) alloc48(n int) []netaddr.Block {
	out := make([]netaddr.Block, 0, n)
	for len(out) < n {
		out = append(out, g.next48Block())
	}
	return out
}

// newAS mints an AS and records it for the registry. The returned pointer
// is stable: operators keep it across fragment renumbering, so rewriting
// a.Number in absorb is visible everywhere the AS is referenced.
func (g *generator) newAS(name, cc string, role asn.Role) *asn.AS {
	a := &asn.AS{
		Number:  g.nextASN,
		Name:    name,
		Country: cc,
		Role:    role,
		Class:   asn.DefaultClassFor(role),
	}
	g.nextASN++
	g.ases = append(g.ases, a)
	return a
}

// addBlock registers a block with the world and its operator.
func (g *generator) addBlock(op *Operator, b BlockInfo) *BlockInfo {
	if len(g.chunk) == cap(g.chunk) {
		// Grow rounds the capacity up to fill the allocation's size class.
		g.chunk = slices.Grow([]BlockInfo(nil), max(g.nextChunk, minChunk))
		g.nextChunk = minChunk
	}
	g.chunk = append(g.chunk, b)
	bi := &g.chunk[len(g.chunk)-1]
	bi.ASN = op.AS.Number
	if bi.Cellular {
		bi.RAT = op.RAT
	}
	op.Blocks = append(op.Blocks, bi)
	g.w.Blocks = append(g.w.Blocks, bi)
	if g.w.BlockIndex != nil {
		// Fragments carry no index: their placeholder keys are renumbered
		// at merge time, where the global index is built instead.
		g.w.BlockIndex[bi.Block] = bi
	}
	if bi.Cellular {
		op.CellDemand += bi.Demand
	} else {
		op.FixedDemand += bi.Demand
	}
	return bi
}

// genCountry builds all networks of one country.
func (g *generator) genCountry(c *geo.Country, budget blockBudget) {
	demand := c.DemandShare
	cellDemand := demand * c.CellFrac
	fixedTotal := demand - cellDemand

	// Non-cellular demand splits across consumer ISP service, enterprise
	// web presence, and beacon-less backend traffic.
	entDemand := fixedTotal * 0.10
	blDemand := fixedTotal * g.cfg.BeaconlessDemandShare
	ispFixedDemand := fixedTotal - entDemand - blDemand

	ops := g.genCellOperators(c, cellDemand, budget)

	// Mixed operators' ISP arms take 55% of consumer fixed demand.
	mixedOps := make([]*Operator, 0, len(ops))
	for _, op := range ops {
		if !op.Dedicated {
			mixedOps = append(mixedOps, op)
		}
	}
	mixedFixed := 0.0
	if len(mixedOps) > 0 {
		mixedFixed = ispFixedDemand * 0.55
	}
	fixedISPDemand := ispFixedDemand - mixedFixed

	// Fixed block budget split: mixed arms and fixed ISPs by demand,
	// enterprises get 18%, content hosting 6%.
	entBlocks := budget.fixed24 * 18 / 100
	contentBlocks := budget.fixed24 * 6 / 100
	ispBlocks := budget.fixed24 - entBlocks - contentBlocks

	nFixedISP := max(1, int(float64(c.CellASes)*1.2+0.5))
	mixedWeights := make([]float64, len(mixedOps))
	for i, op := range mixedOps {
		mixedWeights[i] = math.Sqrt(op.CellDemand + 1e-9)
	}
	mixedBlockShare := 0
	if len(mixedOps) > 0 {
		mixedBlockShare = ispBlocks * 55 / 100
	}
	mixedAlloc := apportion(mixedBlockShare, mixedWeights)
	mixedDemandAlloc := splitProportional(mixedFixed, mixedWeights)
	for i, op := range mixedOps {
		g.genFixedArm(op, c, mixedDemandAlloc[i], max(mixedAlloc[i], 2))
	}

	// Fixed-only ISPs.
	ispShares := traffic.ZipfWeights(nFixedISP, 1.0)
	ispBlockAlloc := apportion(ispBlocks-mixedBlockShare, ispShares)
	ispDemandAlloc := splitProportional(fixedISPDemand, ispShares)
	for i := 0; i < nFixedISP; i++ {
		op := &Operator{
			AS:      g.newAS(fmt.Sprintf("FixedNet-%s-%d", c.Code, i+1), c.Code, asn.RoleFixedISP),
			Country: c,
		}
		g.w.Operators = append(g.w.Operators, op)
		g.genFixedArm(op, c, ispDemandAlloc[i], max(ispBlockAlloc[i], 1))
	}

	// Fixed-line IPv6 deployments ride on the biggest fixed-capable ops.
	g.genFixedV6(c, budget.fixed48, mixedOps, fixedTotal)

	// Enterprise and content tail.
	g.genEnterprises(c, entDemand, blDemand, entBlocks, contentBlocks, budget.demandOnly24)
}

// splitProportional divides total across weights (which need not sum to 1).
func splitProportional(total float64, weights []float64) []float64 {
	out := make([]float64, len(weights))
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		return out
	}
	for i, w := range weights {
		out[i] = total * w / sum
	}
	return out
}

// genCellOperators creates a country's cellular access ASes and their
// cellular address plans.
func (g *generator) genCellOperators(c *geo.Country, cellDemand float64, budget blockBudget) []*Operator {
	n := c.CellASes
	if n == 0 {
		return nil
	}
	shares, mixedFlags := g.operatorShares(c, n)

	// Apportion active cellular blocks sub-linearly in demand share so
	// small operators keep a footprint; every operator gets at least 2.
	weights := make([]float64, n)
	for i, s := range shares {
		weights[i] = math.Pow(s+1e-9, 0.7)
	}
	blockAlloc := apportion(budget.cell24, weights)
	v6Alloc := g.v6Alloc(c, budget.cell48, shares)

	ops := make([]*Operator, 0, n)
	for i := 0; i < n; i++ {
		role := asn.RoleMixedOperator
		kind := "MixedTel"
		if !mixedFlags[i] {
			role = asn.RoleDedicatedCellular
			kind = "MobileNet"
		}
		op := &Operator{
			AS:             g.newAS(fmt.Sprintf("%s-%s-%d", kind, c.Code, i+1), c.Code, role),
			Country:        c,
			Dedicated:      !mixedFlags[i],
			V6:             v6Alloc[i] > 0,
			PublicDNSShare: clamp01(c.PublicDNSShare * traffic.LogNormal(g.rng, 0, 0.2)),
		}
		op.RAT = ratProfileFor(op.AS.Name, op.Dedicated)
		g.w.Operators = append(g.w.Operators, op)
		g.w.CellOperators = append(g.w.CellOperators, op)
		g.genCellPlan(op, cellDemand*shares[i], max(blockAlloc[i], 2), v6Alloc[i], g.plan(op.Dedicated))
		ops = append(ops, op)
	}
	return ops
}

// operatorShares returns each cellular operator's share of country cellular
// demand and its mixed flag, honouring overrides.
func (g *generator) operatorShares(c *geo.Country, n int) (shares []float64, mixed []bool) {
	shares = make([]float64, n)
	mixed = make([]bool, n)
	forced := make([]bool, n) // mixed flag pinned by override
	ovs := g.cfg.Overrides[c.Code]
	if len(ovs) > n {
		ovs = ovs[:n]
	}
	used := 0.0
	for i, ov := range ovs {
		shares[i] = ov.Share
		mixed[i] = ov.Mixed
		forced[i] = true
		used += ov.Share
	}
	rest := n - len(ovs)
	if rest > 0 {
		tail := traffic.ZipfWeights(rest, 1.1)
		for i := range tail {
			tail[i] *= traffic.LogNormal(g.rng, 0, 0.15)
		}
		tailSum := 0.0
		for _, v := range tail {
			tailSum += v
		}
		remainder := math.Max(0, 1-used)
		for i, v := range tail {
			shares[len(ovs)+i] = remainder * v / tailSum
		}
	}
	// Fill mixed flags to hit the country's MixedShare. Rank 1 stays
	// dedicated, but large incumbents are often mixed (the paper's
	// Carrier A is a large mixed European provider), so even ranks take
	// the flag first, then the remaining bottom ranks.
	wantMixed := int(c.MixedShare*float64(n) + 0.5)
	have := 0
	for i := range mixed {
		if mixed[i] {
			have++
		}
	}
	for i := 1; i < n && have < wantMixed; i += 2 {
		if !forced[i] && !mixed[i] {
			mixed[i] = true
			have++
		}
	}
	for i := n - 1; i >= 1 && have < wantMixed; i-- {
		if !forced[i] && !mixed[i] {
			mixed[i] = true
			have++
		}
	}
	return shares, mixed
}

// v6Alloc distributes the country's cellular /48 budget to its first
// IPv6ASes operators, weighted by demand share.
func (g *generator) v6Alloc(c *geo.Country, cell48 int, shares []float64) []int {
	out := make([]int, len(shares))
	if c.IPv6ASes == 0 {
		return out
	}
	k := min(c.IPv6ASes, len(shares))
	w := make([]float64, len(shares))
	copy(w[:k], shares[:k])
	alloc := apportion(cell48, w)
	for i := 0; i < k; i++ {
		if alloc[i] == 0 {
			alloc[i] = 1 // a v6 deployment implies at least one /48
		}
	}
	return alloc
}

// planParams shapes one operator's cellular address plan.
type planParams struct {
	fwaFrac        float64 // fraction of active blocks serving LTE home broadband
	fwaDemandShare float64
	lowFactor      float64 // low-activity blocks per active block
	lowDemandShare float64
	idleFrac       float64 // idle fraction of total inventory (dedicated)
	heavyFrac      float64
	heavyShare     float64
	v6DemandShare  float64
}

// plan derives an operator's plan parameters from the config.
func (g *generator) plan(dedicated bool) planParams {
	cfg := g.cfg
	p := planParams{
		fwaFrac:        cfg.FWAFrac,
		fwaDemandShare: cfg.FWADemandShare,
		lowFactor:      cfg.LowActivityMixed,
		lowDemandShare: cfg.LowActivityDemandShare,
		heavyFrac:      cfg.HeavyFrac,
		heavyShare:     cfg.HeavyShare,
		v6DemandShare:  cfg.V6DemandShare,
	}
	if dedicated {
		// Dedicated MNOs keep nearly all demand on beacon-visible CGNAT
		// blocks (Carrier B's demand recall is 0.99) and sell little FWA,
		// keeping their measured cellular fraction of demand above the
		// paper's 0.9 dedication cut.
		p.fwaFrac = cfg.FWAFrac * 0.4
		p.fwaDemandShare = cfg.FWADemandShare * 0.25
		p.lowFactor = cfg.LowActivityDedicated
		p.lowDemandShare = cfg.LowActivityDemandShare * 0.1
		p.idleFrac = cfg.IdleDedicatedFrac
	}
	return p
}

// genCellPlan creates one operator's cellular address plan: CGNAT heavy
// hitters, FWA blocks at intermediate label rates, low-activity blocks, and
// (for dedicated operators) idle inventory.
func (g *generator) genCellPlan(op *Operator, cellDemand float64, nActive, nV6 int, p planParams) {
	v6Demand := 0.0
	if nV6 > 0 {
		v6Demand = cellDemand * p.v6DemandShare
	}
	v4Demand := cellDemand - v6Demand

	nFWA := 0
	if nActive >= 8 {
		nFWA = int(p.fwaFrac*float64(nActive) + 0.5)
	}
	nCGNAT := nActive - nFWA

	nLow := int(p.lowFactor*float64(nActive) + 0.5)

	lowDemand := v4Demand * p.lowDemandShare
	if nLow == 0 {
		lowDemand = 0
	}
	fwaDemand := 0.0
	if nFWA > 0 {
		fwaDemand = v4Demand * p.fwaDemandShare
	}
	cgnatDemand := v4Demand - lowDemand - fwaDemand

	blocks := g.alloc24(nActive + nLow)
	cgnatWeights := traffic.HeavySplit(g.rng, nCGNAT, max(1, int(p.heavyFrac*float64(nCGNAT)+0.5)), p.heavyShare)
	for i := 0; i < nCGNAT; i++ {
		g.addBlock(op, BlockInfo{
			Block:         blocks[i],
			Cellular:      true,
			WebActive:     true,
			Demand:        cgnatDemand * cgnatWeights[i],
			CellLabelProb: 1 - g.tetherRate(),
		})
	}
	fwaWeights := traffic.GradualSplit(g.rng, nFWA)
	for i := 0; i < nFWA; i++ {
		g.addBlock(op, BlockInfo{
			Block:         blocks[nCGNAT+i],
			Cellular:      true,
			WebActive:     true,
			Demand:        fwaDemand * fwaWeights[i],
			CellLabelProb: 0.55 + 0.30*g.rng.Float64(), // LTE home routers: wifi-heavy labels
		})
	}
	lowWeights := traffic.GradualSplit(g.rng, nLow)
	for i := 0; i < nLow; i++ {
		g.addBlock(op, BlockInfo{
			Block:         blocks[nActive+i],
			Cellular:      true,
			WebActive:     false, // demand without browsers: the FN source
			Demand:        lowDemand * lowWeights[i],
			CellLabelProb: 1 - g.tetherRate(),
		})
	}
	if p.idleFrac > 0 && p.idleFrac < 1 {
		nIdle := int(p.idleFrac / (1 - p.idleFrac) * float64(nActive+nLow))
		for _, b := range g.alloc24(nIdle) {
			g.addBlock(op, BlockInfo{Block: b, Cellular: false})
		}
	}
	if nV6 > 0 {
		v6Weights := traffic.HeavySplit(g.rng, nV6, max(1, int(p.heavyFrac*float64(nV6)+0.5)), p.heavyShare)
		for i, b := range g.alloc48(nV6) {
			g.addBlock(op, BlockInfo{
				Block:         b,
				Cellular:      true,
				WebActive:     true,
				Demand:        v6Demand * v6Weights[i],
				CellLabelProb: 1 - g.tetherRate(),
			})
		}
	}
}

// tetherRate draws a per-block hotspot/tethering rate: mostly small, with a
// tail so that not every cellular subnet exceeds the 0.9 ratio bucket.
func (g *generator) tetherRate() float64 {
	r := 0.02 + g.rng.ExpFloat64()*0.03
	if r > 0.30 {
		r = 0.30
	}
	return r
}

// genFixedArm creates a fixed-line consumer footprint on an operator.
func (g *generator) genFixedArm(op *Operator, c *geo.Country, demand float64, nBlocks int) {
	if nBlocks <= 0 {
		return
	}
	weights := traffic.GradualSplit(g.rng, nBlocks)
	blocks := g.alloc24(nBlocks)
	for i, b := range blocks {
		g.addBlock(op, BlockInfo{
			Block:         b,
			Cellular:      false,
			WebActive:     true,
			Demand:        demand * weights[i],
			CellLabelProb: netinfo.SwitchRaceRate,
		})
	}
}

// genFixedV6 spreads the country's fixed /48 budget across its mixed
// operators (or, failing that, creates none — v6 census needs owners).
func (g *generator) genFixedV6(c *geo.Country, n int, mixedOps []*Operator, fixedTotal float64) {
	if n <= 0 || len(mixedOps) == 0 {
		return
	}
	demand := fixedTotal * 0.005 // v6 carried a sliver of fixed demand in 2016
	weights := make([]float64, len(mixedOps))
	for i, op := range mixedOps {
		weights[i] = op.FixedDemand + 1e-9
	}
	alloc := apportion(n, weights)
	demands := splitProportional(demand, weights)
	for i, op := range mixedOps {
		if alloc[i] == 0 {
			continue
		}
		w := traffic.GradualSplit(g.rng, alloc[i])
		for j, b := range g.alloc48(alloc[i]) {
			g.addBlock(op, BlockInfo{
				Block:         b,
				Cellular:      false,
				WebActive:     true,
				Demand:        demands[i] * w[j],
				CellLabelProb: netinfo.SwitchRaceRate,
			})
		}
	}
}

// genEnterprises creates the enterprise/content tail of a country: web
// enterprises, content hosts, and beacon-less backend blocks.
func (g *generator) genEnterprises(c *geo.Country, entDemand, blDemand float64, entBlocks, contentBlocks, demandOnly int) {
	total := g.cfg.Countries.TotalDemandShare()
	nTail := int(float64(g.cfg.ASTail) * math.Sqrt(g.cfg.Scale) * c.DemandShare / total)
	if c.DemandShare > 0 && nTail < 1 {
		nTail = 1
	}
	if nTail == 0 {
		return
	}
	nContent := max(1, nTail/12)
	nEnt := nTail - nContent

	entWeights := traffic.ZipfWeights(nEnt, 0.9)
	entBlockAlloc := apportion(entBlocks, entWeights)
	entDemAlloc := splitProportional(entDemand, entWeights)
	blPerEnt := apportion(demandOnly*6/10, entWeights)
	blDemAlloc := splitProportional(blDemand*0.6, entWeights)
	for i := 0; i < nEnt; i++ {
		op := &Operator{
			AS:      g.newAS(fmt.Sprintf("Ent-%s-%d", c.Code, i+1), c.Code, asn.RoleEnterprise),
			Country: c,
		}
		g.w.Operators = append(g.w.Operators, op)
		g.genFixedArm(op, c, entDemAlloc[i], entBlockAlloc[i])
		g.genBeaconless(op, blDemAlloc[i], blPerEnt[i])
	}

	contentWeights := traffic.ZipfWeights(nContent, 1.0)
	cBlockAlloc := apportion(contentBlocks, contentWeights)
	cblAlloc := apportion(demandOnly*4/10, contentWeights)
	cDemAlloc := splitProportional(blDemand*0.4, contentWeights)
	for i := 0; i < nContent; i++ {
		op := &Operator{
			AS:      g.newAS(fmt.Sprintf("Host-%s-%d", c.Code, i+1), c.Code, asn.RoleContent),
			Country: c,
		}
		g.w.Operators = append(g.w.Operators, op)
		g.genFixedArm(op, c, cDemAlloc[i]*0.3, cBlockAlloc[i])
		g.genBeaconless(op, cDemAlloc[i]*0.7, cblAlloc[i])
	}
}

// genBeaconless adds demand-only blocks (no browser traffic) to an operator.
func (g *generator) genBeaconless(op *Operator, demand float64, n int) {
	if n <= 0 {
		return
	}
	weights := traffic.GradualSplit(g.rng, n)
	for i, b := range g.alloc24(n) {
		g.addBlock(op, BlockInfo{
			Block:         b,
			Cellular:      false,
			WebActive:     false,
			Demand:        demand * weights[i],
			CellLabelProb: 0,
		})
	}
}

// clamp01 clamps v into [0,1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
