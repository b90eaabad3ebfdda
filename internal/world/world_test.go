package world

import (
	"fmt"
	"math"
	"testing"

	"cellspot/internal/asn"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
)

// testWorld generates one small world per test binary run.
var testWorldCache *World

func testWorld(t *testing.T) *World {
	t.Helper()
	if testWorldCache == nil {
		cfg := DefaultConfig()
		cfg.Scale = 0.004
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testWorldCache = w
	}
	return testWorldCache
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = 1.5 },
		func(c *Config) { c.FWAFrac = -0.1 },
		func(c *Config) { c.HeavyShare = 2 },
		func(c *Config) { c.LowActivityMixed = -1 },
		func(c *Config) { c.StrayASes = -1 },
		func(c *Config) { c.Overrides = map[string][]OperatorOverride{"US": {{Share: 0.9}, {Share: 0.3}}} },
		func(c *Config) { c.Overrides = map[string][]OperatorOverride{"US": {{Share: -0.1}}} },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestApportion(t *testing.T) {
	got := apportion(10, []float64{1, 1, 2})
	if got[0]+got[1]+got[2] != 10 {
		t.Errorf("apportion total = %v", got)
	}
	if got[2] != 5 {
		t.Errorf("apportion = %v, want last 5", got)
	}
	zero := apportion(5, []float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("all-zero weights: %v", zero)
	}
	mixed := apportion(7, []float64{0, 3, 1})
	if mixed[0] != 0 || mixed[1]+mixed[2] != 7 {
		t.Errorf("apportion with zero weight = %v", mixed)
	}
	if r := apportion(0, []float64{1}); r[0] != 0 {
		t.Errorf("total 0: %v", r)
	}
}

func TestGenerateBasicShape(t *testing.T) {
	w := testWorld(t)
	if len(w.CellOperators) < 600 || len(w.CellOperators) > 740 {
		t.Errorf("cellular operators = %d, want near 668 (paper Table 5)", len(w.CellOperators))
	}
	if len(w.Blocks) == 0 || len(w.Operators) == 0 || len(w.Resolvers) == 0 {
		t.Fatal("world is empty")
	}
	if w.TotalDemand <= 0 {
		t.Fatal("no demand")
	}
	if w.CarrierA == nil || w.CarrierB == nil || w.CarrierC == nil {
		t.Fatal("validation carriers not selected")
	}
	if w.CarrierA.Dedicated {
		t.Error("Carrier A must be mixed")
	}
	if !w.CarrierB.Dedicated || w.CarrierB.Country.Code != "US" {
		t.Error("Carrier B must be a dedicated US operator")
	}
	if w.CarrierC.Dedicated || !isMiddleEast(w.CarrierC.Country.Code) {
		t.Error("Carrier C must be a mixed Middle-East operator")
	}
}

func TestGenerateBlockIndexConsistent(t *testing.T) {
	w := testWorld(t)
	if len(w.BlockIndex) != len(w.Blocks) {
		t.Fatalf("index has %d entries for %d blocks (duplicate allocation?)", len(w.BlockIndex), len(w.Blocks))
	}
	for i, b := range w.Blocks {
		if w.BlockIndex[b.Block] != b {
			t.Fatalf("block %d not indexed to itself", i)
		}
		if b.Demand < 0 {
			t.Fatalf("negative demand on %v", b.Block)
		}
		if b.CellLabelProb < 0 || b.CellLabelProb > 1 {
			t.Fatalf("CellLabelProb %g out of range", b.CellLabelProb)
		}
		if _, ok := w.Registry.Lookup(b.ASN); !ok {
			t.Fatalf("block %v owned by unregistered AS%d", b.Block, b.ASN)
		}
	}
}

func TestGenerateOperatorDemandMatchesBlocks(t *testing.T) {
	w := testWorld(t)
	for _, op := range w.Operators {
		var cell, fixed float64
		for _, b := range op.Blocks {
			if b.Cellular {
				cell += b.Demand
			} else {
				fixed += b.Demand
			}
		}
		if math.Abs(cell-op.CellDemand) > 1e-9 || math.Abs(fixed-op.FixedDemand) > 1e-9 {
			t.Fatalf("%s: demand bookkeeping off: %g/%g vs %g/%g",
				op.AS.Name, cell, fixed, op.CellDemand, op.FixedDemand)
		}
	}
}

func TestGenerateGroundTruthCellularFraction(t *testing.T) {
	w := testWorld(t)
	var cellDem float64
	for _, b := range w.Blocks {
		if b.Cellular {
			cellDem += b.Demand
		}
	}
	frac := cellDem / w.TotalDemand
	// Ground truth sits slightly above the paper's measured 16.2% because
	// detection misses some low-activity and FWA demand.
	if frac < 0.15 || frac < 0.16 && frac > 0.24 || frac > 0.24 {
		t.Errorf("ground-truth cellular demand fraction = %.3f, want in [0.15,0.24]", frac)
	}
}

func TestGenerateMixedMajority(t *testing.T) {
	w := testWorld(t)
	mixed := 0
	var mixedDem, totalDem float64
	for _, op := range w.CellOperators {
		if !op.Dedicated {
			mixed++
			mixedDem += op.CellDemand
		}
		totalDem += op.CellDemand
	}
	frac := float64(mixed) / float64(len(w.CellOperators))
	if frac < 0.50 || frac > 0.65 {
		t.Errorf("mixed operator fraction = %.3f, want majority near 0.586", frac)
	}
	demFrac := mixedDem / totalDem
	if demFrac < 0.2 || demFrac > 0.45 {
		t.Errorf("mixed demand share = %.3f, want near 0.327", demFrac)
	}
}

func TestGenerateTopOperatorShares(t *testing.T) {
	w := testWorld(t)
	var total float64
	shares := make([]float64, 0, len(w.CellOperators))
	for _, op := range w.CellOperators {
		total += op.CellDemand
	}
	for _, op := range w.CellOperators {
		shares = append(shares, op.CellDemand/total)
	}
	// top-10 share (paper: 38%); top-5 (paper: 35.9%)
	top10, top5 := 0.0, 0.0
	for i := 0; i < 10; i++ {
		best := 0
		for j := range shares {
			if shares[j] > shares[best] {
				best = j
			}
		}
		top10 += shares[best]
		if i < 5 {
			top5 += shares[best]
		}
		shares[best] = -1
	}
	if top10 < 0.30 || top10 > 0.46 {
		t.Errorf("top-10 AS share of cellular demand = %.3f, want near 0.38", top10)
	}
	if top5 < 0.26 || top5 > 0.42 {
		t.Errorf("top-5 AS share = %.3f, want near 0.359", top5)
	}
}

func TestGenerateNoiseASes(t *testing.T) {
	w := testWorld(t)
	counts := map[asn.Role]int{}
	for _, a := range w.Registry.All() {
		counts[a.Role]++
	}
	cfg := w.Config
	if got := counts[asn.RoleProxyService] + counts[asn.RoleCloudHosting] + counts[asn.RoleVPNService]; got < cfg.ProxyASes {
		t.Errorf("proxy-family ASes = %d, want >= %d", got, cfg.ProxyASes)
	}
	if counts[asn.RoleDedicatedCellular] < cfg.IoTASes {
		t.Error("IoT cellular ASes missing")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0.002
	w1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Blocks) != len(w2.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(w1.Blocks), len(w2.Blocks))
	}
	for i := range w1.Blocks {
		a, b := w1.Blocks[i], w2.Blocks[i]
		if a.Block != b.Block || a.ASN != b.ASN || a.Demand != b.Demand ||
			a.Cellular != b.Cellular || a.CellLabelProb != b.CellLabelProb {
			t.Fatalf("block %d differs between runs: %+v vs %+v", i, a, b)
		}
	}
	if w1.TotalDemand != w2.TotalDemand {
		t.Error("total demand differs")
	}
	cfg2 := cfg
	cfg2.Seed = 99
	w3, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := len(w3.Blocks) == len(w1.Blocks)
	if same {
		diff := false
		for i := range w1.Blocks {
			if w1.Blocks[i].Demand != w3.Blocks[i].Demand {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical demand")
		}
	}
}

func TestGenerateResolverAffinity(t *testing.T) {
	w := testWorld(t)
	known := make(map[*Resolver]bool, len(w.Resolvers))
	for _, r := range w.Resolvers {
		known[r] = true
	}
	withAffinity := 0
	var ws []ResolverWeight
	for _, b := range w.Blocks {
		ws = w.AppendAffinity(ws[:0], b.Block)
		if len(ws) == 0 {
			continue
		}
		withAffinity++
		if b.Demand <= 0 {
			t.Fatalf("zero-demand block %v has an affinity", b.Block)
		}
		sum := 0.0
		for _, rw := range ws {
			if !known[rw.Resolver] {
				t.Fatalf("block %v references a resolver outside w.Resolvers: %+v", b.Block, rw.Resolver)
			}
			if rw.Weight < 0 {
				t.Fatalf("negative affinity weight on %v", b.Block)
			}
			sum += rw.Weight
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("affinity weights for %v sum to %g", b.Block, sum)
		}
	}
	if withAffinity == 0 {
		t.Fatal("no block has an affinity")
	}
	if ws = w.AppendAffinity(ws[:0], netaddr.V4Block(0, 0, 1)); len(ws) != 0 {
		t.Errorf("a block outside the world has affinity %+v", ws)
	}
	// Mixed operators share resolvers (paper: ~60%).
	shared, total := 0, 0
	for _, op := range w.CellOperators {
		if op.Dedicated {
			continue
		}
		for _, r := range op.Resolvers {
			total++
			if r.ServesCell && r.ServesFixed {
				shared++
			}
		}
	}
	if total == 0 {
		t.Fatal("mixed operators have no resolvers")
	}
	if frac := float64(shared) / float64(total); frac < 0.5 || frac > 0.7 {
		t.Errorf("shared resolver fraction = %.3f, want near 0.6", frac)
	}
}

func TestGenerateV6Census(t *testing.T) {
	w := testWorld(t)
	v6Ops := 0
	for _, op := range w.CellOperators {
		if op.V6 {
			v6Ops++
		}
	}
	// Paper: 52 cellular ASes deploy IPv6.
	if v6Ops < 40 || v6Ops > 65 {
		t.Errorf("v6 cellular operators = %d, want near 52", v6Ops)
	}
	countries := map[string]bool{}
	for _, op := range w.CellOperators {
		if op.V6 {
			countries[op.Country.Code] = true
		}
	}
	if len(countries) < 18 || len(countries) > 28 {
		t.Errorf("v6 countries = %d, want near 24", len(countries))
	}
}

func TestCarrierTruth(t *testing.T) {
	w := testWorld(t)
	truth := w.CarrierTruth(w.CarrierA, false)
	if len(truth) == 0 {
		t.Fatal("empty carrier truth")
	}
	nCell := 0
	for blk, cell := range truth {
		bi := w.BlockIndex[blk]
		if bi == nil || bi.Cellular != cell {
			t.Fatalf("truth disagrees with world for %v", blk)
		}
		if cell {
			nCell++
		}
	}
	if nCell == 0 || nCell == len(truth) {
		t.Errorf("mixed carrier truth should contain both classes: %d/%d cellular", nCell, len(truth))
	}
	withIdle := w.CarrierTruth(w.CarrierB, true)
	active := w.CarrierTruth(w.CarrierB, false)
	if len(withIdle) < len(active) {
		t.Error("includeIdle lost blocks")
	}
}

func TestGenerateCaseStudy(t *testing.T) {
	w, err := GenerateCaseStudy(CaseStudyConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.TotalDemand-100000) > 1 {
		t.Errorf("case-study demand = %g, want 100000 DU", w.TotalDemand)
	}
	a, b, c := w.CarrierA, w.CarrierB, w.CarrierC
	// Carrier A: ~5.1k cellular blocks (514 active), ~89.6k fixed.
	aCell, aFixed := 0, 0
	for _, bi := range a.Blocks {
		if bi.Cellular {
			aCell++
		} else {
			aFixed++
		}
	}
	if aCell < 4900 || aCell > 5400 {
		t.Errorf("carrier A cellular blocks = %d, want ~5122", aCell)
	}
	if aFixed < 89000 || aFixed > 90100 {
		t.Errorf("carrier A fixed blocks = %d, want ~89553", aFixed)
	}
	if math.Abs(a.CellDemand-86.2) > 0.5 {
		t.Errorf("carrier A cellular demand = %.2f DU, want 86.2", a.CellDemand)
	}
	// Carrier B: ~2972 cellular + ~2k idle.
	bCell := 0
	for _, bi := range b.Blocks {
		if bi.Cellular {
			bCell++
		}
	}
	if bCell < 2900 || bCell > 3050 {
		t.Errorf("carrier B cellular blocks = %d, want ~2972", bCell)
	}
	if len(b.Blocks)-bCell < 1500 {
		t.Errorf("carrier B idle inventory = %d, want ~2k", len(b.Blocks)-bCell)
	}
	// Carrier C.
	if c.Dedicated {
		t.Error("carrier C must be mixed")
	}
	if math.Abs(c.FixedDemand-(42.85+0.17)) > 0.5 {
		t.Errorf("carrier C fixed demand = %.2f, want ~43.0", c.FixedDemand)
	}
}

func TestProviderMix(t *testing.T) {
	for _, cc := range []string{"US", "IN", "DZ", "HK", ""} {
		m := providerMix(cc)
		sum := m[0] + m[1] + m[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("provider mix for %q sums to %g", cc, sum)
		}
	}
}

func TestContinentBlockTableMatchesPaper(t *testing.T) {
	// Table 4 cellular counts, verbatim.
	want := map[geo.Continent]int{
		geo.Africa: 79091, geo.Asia: 86618, geo.Europe: 65442,
		geo.NorthAmerica: 27595, geo.Oceania: 4352, geo.SouthAmerica: 87589,
	}
	totCell, totActive := 0, 0
	for ct, cb := range continentBlocks {
		if cb.cell24 != want[ct] {
			t.Errorf("%s cell24 = %d, want %d", ct, cb.cell24, want[ct])
		}
		totCell += cb.cell24
		totActive += cb.active24
	}
	if totCell != 350687 {
		t.Errorf("total cellular /24 = %d, want 350687", totCell)
	}
	// 7.3% of active IPv4 space (paper) within rounding of the derived
	// active counts.
	frac := float64(totCell) / float64(totActive)
	if frac < 0.070 || frac > 0.076 {
		t.Errorf("cellular fraction of active space = %.4f, want ~0.073", frac)
	}
}

// oracleAffinity is the block→resolver affinity the generator stored
// before World.AppendAffinity derived it on request, kept as the oracle the
// derivation must reproduce exactly. It rebuilds the generator's inputs
// from the world: the public resolvers by provider in creation order, and
// each access operator's own fleet.
func oracleAffinity(w *World) map[netaddr.Block][]ResolverWeight {
	publicByProvider := make(map[string][]*Resolver, 3)
	for _, r := range w.Resolvers {
		if r.Public {
			publicByProvider[r.Provider] = append(publicByProvider[r.Provider], r)
		}
	}
	aff := make(map[netaddr.Block][]ResolverWeight)
	for _, op := range w.Operators {
		if !op.AS.Role.IsCellularAccess() && op.AS.Role != asn.RoleFixedISP {
			continue
		}
		oracleAssignAffinity(aff, op, op.Resolvers, publicByProvider)
	}
	return aff
}

// oracleAssignAffinity is the generator's former assignAffinity: it wires
// each of the operator's demand-carrying blocks to resolvers, a public-DNS
// share split across providers, the rest to two of the operator's own
// resolvers chosen deterministically per block.
func oracleAssignAffinity(aff map[netaddr.Block][]ResolverWeight, op *Operator, resolvers []*Resolver, publicByProvider map[string][]*Resolver) {
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
		aff[b.Block] = weights
	}
}

// TestAppendAffinityMatchesOracle pins the derived affinity to the stored
// one it replaced: every block of a global or case-study world gets the
// oracle's weights, with the same resolvers in the same order and every
// float64 equal, and every block the oracle skipped gets none.
func TestAppendAffinityMatchesOracle(t *testing.T) {
	check := func(t *testing.T, w *World) {
		t.Helper()
		want := oracleAffinity(w)
		if len(want) == 0 {
			t.Fatal("oracle assigned no affinity")
		}
		matched := 0
		var got []ResolverWeight
		for _, b := range w.Blocks {
			got = w.AppendAffinity(got[:0], b.Block)
			ws, ok := want[b.Block]
			if !ok {
				if len(got) != 0 {
					t.Fatalf("block %v: got %+v, the oracle assigns none", b.Block, got)
				}
				continue
			}
			matched++
			if len(got) != len(ws) {
				t.Fatalf("block %v: %d weights, oracle %d", b.Block, len(got), len(ws))
			}
			for i := range ws {
				if got[i].Resolver != ws[i].Resolver || got[i].Weight != ws[i].Weight {
					t.Fatalf("block %v weight %d: got {%v %v}, oracle {%v %v}", b.Block, i,
						got[i].Resolver.Addr, got[i].Weight, ws[i].Resolver.Addr, ws[i].Weight)
				}
			}
		}
		if matched != len(want) {
			t.Fatalf("oracle covers %d blocks, %d of them are in w.Blocks", len(want), matched)
		}
	}
	for _, seed := range []uint64{1, 2, 3} {
		for _, scale := range []float64{0.005, 0.01} {
			cfg := DefaultConfig()
			cfg.Seed, cfg.Scale = seed, scale
			t.Run(fmt.Sprintf("seed%d/scale%g", seed, scale), func(t *testing.T) {
				w, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, w)
			})
		}
	}
	t.Run("casestudy", func(t *testing.T) {
		w, err := GenerateCaseStudy(CaseStudyConfig{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		check(t, w)
	})
}
