// Package world generates the synthetic Internet the reproduction measures:
// countries, autonomous systems, operators (dedicated-cellular, mixed,
// fixed-only), their IPv4 /24 and IPv6 /48 address plans with CGNAT demand
// concentration, DNS resolver deployments, and the proxy/cloud/VPN noise
// networks that produce the paper's straw-man false positives.
//
// The world is ground truth. The measurement pipeline (beacon, demand,
// classify, aschar, macro) sees only the logs generated from it and must
// recover the truth; precision/recall are computed against the fields here.
// Everything is deterministic given Config.Seed.
package world

import (
	"net/netip"
	"sync"

	"cellspot/internal/asn"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
)

// BlockInfo is the ground truth for one /24 or /48 block. Its fields are
// ordered by size so the struct packs into 40 bytes with no padding
// between fields; TestBlockInfoPacked holds it there.
type BlockInfo struct {
	Block netaddr.Block

	// Demand is the block's unnormalized demand weight. The demand
	// pipeline normalizes world totals to 100,000 Demand Units.
	Demand float64

	// CellLabelProb is the probability that an API-enabled hit from this
	// block carries a "cellular" ConnectionType label. For cellular blocks
	// it is 1 minus the tether/hotspot rate (LTE home-broadband blocks sit
	// in the middle, producing the paper's intermediate ratios); for
	// fixed blocks it is the tiny interface-switch race rate; for proxy
	// egress blocks it is high despite the block not being cellular.
	CellLabelProb float64

	ASN uint32

	// HitsOverride, when positive, fixes the block's API-enabled beacon
	// hit count instead of deriving it from demand. Used by noise blocks
	// (stray tethers, IoT operators) that need specific tiny hit counts.
	HitsOverride int32

	// RAT is the owning operator's radio-generation adoption profile,
	// copied onto cellular blocks; the mix of 3G/4G/5G traffic a block
	// carries in a month is RAT.Mix(month). Meaningless for fixed blocks.
	RAT netinfo.RATProfile

	// Cellular is the ground-truth access type: true when traffic from
	// this block traverses a cellular radio.
	Cellular bool

	// WebActive reports whether the block produces browser page loads and
	// therefore appears in the BEACON dataset. Low-activity cellular
	// blocks (infrastructure, M2M) have demand but no beacons — the
	// paper's dominant false-negative source.
	WebActive bool
}

// Resolver is one recursive DNS resolver serving clients.
type Resolver struct {
	Addr     netip.Addr
	ASN      uint32 // operator AS, or the public provider's AS
	Public   bool
	Provider string // "GoogleDNS", "OpenDNS", "Level3" for public resolvers

	// ServesCell/ServesFixed record the ground-truth assignment inside the
	// owning operator (shared resolvers serve both).
	ServesCell  bool
	ServesFixed bool
}

// ResolverWeight is one entry of a block's resolver affinity: the fraction
// of the block's resolutions handled by a resolver.
type ResolverWeight struct {
	Resolver *Resolver
	Weight   float64
}

// Operator is an access network (or noise network) in the world.
type Operator struct {
	AS      *asn.AS
	Country *geo.Country

	// Dedicated marks cellular-only operators; false for mixed operators.
	// Meaningless for non-cellular roles.
	Dedicated bool

	// V6 marks operators deploying IPv6 on their cellular network.
	V6 bool

	// RAT is the operator's radio-generation adoption profile (lag behind
	// the global 3G/4G/5G baseline, 5G deployment flag). Derived
	// deterministically from the AS identity, not from the generation RNG
	// streams, so adding or changing profiles never shifts other draws.
	RAT netinfo.RATProfile

	// CellDemand and FixedDemand are the operator's unnormalized demand
	// totals by ground-truth access type.
	CellDemand  float64
	FixedDemand float64

	// Blocks lists every block the operator owns (including zero-demand
	// inventory).
	Blocks []*BlockInfo

	// PublicDNSShare is the fraction of the operator's client resolutions
	// sent to public DNS services.
	PublicDNSShare float64

	// Resolvers are the operator's own recursive resolvers.
	Resolvers []*Resolver
}

// World is a fully generated synthetic Internet.
type World struct {
	Config    Config
	Countries *geo.DB
	Registry  *asn.Registry
	Snapshot  *asn.Snapshot

	// Operators holds every network that owns client blocks, including
	// fixed ISPs, enterprises and noise ASes. CellOperators is the
	// ground-truth cellular access subset (dedicated + mixed).
	Operators     []*Operator
	CellOperators []*Operator

	// Blocks is every block in the world; BlockIndex maps a block key to
	// its info. A block's resolver affinity is not stored: AppendAffinity
	// derives it from the block and its operator's resolver plan.
	Blocks     []*BlockInfo
	BlockIndex map[netaddr.Block]*BlockInfo

	// Resolvers lists all resolvers, operator-owned and public.
	// resolverAS indexes them by address for ResolverAS; copies of the
	// world share it, so a copy keeps the same list.
	Resolvers  []*Resolver
	resolverAS *resolverIndex

	// dnsPlans holds each access operator's resolver plan by AS number,
	// and publicDNS the public resolvers of each publicProviders entry.
	dnsPlans  map[uint32]*dnsPlan
	publicDNS [][]*Resolver

	// TotalDemand is the sum of block demand (unnormalized units).
	TotalDemand float64

	// CarrierA, CarrierB, CarrierC are the named validation operators:
	// a large mixed European provider, a large dedicated U.S. MNO, and a
	// large mixed Middle-East MNO (paper §4.2).
	CarrierA, CarrierB, CarrierC *Operator
}

// Block returns the ground truth of block b, or nil when the world has no
// such block.
func (w *World) Block(b netaddr.Block) *BlockInfo { return w.BlockIndex[b] }

// ASOf returns the AS that originates block b, as a BGP table would.
func (w *World) ASOf(b netaddr.Block) (uint32, bool) {
	bi := w.BlockIndex[b]
	if bi == nil {
		return 0, false
	}
	return bi.ASN, true
}

// CountryOf returns an AS's registered country, as whois would.
func (w *World) CountryOf(asNum uint32) (string, bool) {
	a, ok := w.Registry.Lookup(asNum)
	if !ok {
		return "", false
	}
	return a.Country, true
}

// resolverIndex maps resolver addresses to their ASes. It is built once,
// on first use, so a world nobody asks (pipeline.Run's, the live map
// inputs') does not hold it.
type resolverIndex struct {
	once   sync.Once
	byAddr map[netip.Addr]uint32
}

// ResolverAS returns the AS that originates a resolver address, as BGP
// would. It is safe for concurrent use.
func (w *World) ResolverAS(addr netip.Addr) (uint32, bool) {
	ix := w.resolverAS
	ix.once.Do(func() {
		ix.byAddr = make(map[netip.Addr]uint32, len(w.Resolvers))
		for _, r := range w.Resolvers {
			ix.byAddr[r.Addr] = r.ASN
		}
	})
	a, ok := ix.byAddr[addr]
	return a, ok
}

// Clone returns a copy of w with fresh BlockInfo values in Blocks and
// BlockIndex, so the copy's blocks can change and grow (AddBlock) without
// touching w. Everything else is shared: the registry, countries and
// resolvers, and the operators, whose Blocks still list w's values. The
// copy's resolver affinity (AppendAffinity) follows its own blocks.
func (w *World) Clone() *World {
	clone := *w
	clone.Blocks = make([]*BlockInfo, len(w.Blocks))
	clone.BlockIndex = make(map[netaddr.Block]*BlockInfo, len(w.Blocks))
	for i, b := range w.Blocks {
		nb := *b
		clone.Blocks[i] = &nb
		clone.BlockIndex[nb.Block] = &nb
	}
	return &clone
}

// AddBlock appends a block to the world and indexes it. The caller picks
// a key that no block of w holds yet.
func (w *World) AddBlock(bi *BlockInfo) {
	w.Blocks = append(w.Blocks, bi)
	w.BlockIndex[bi.Block] = bi
}

// CarrierTruth exports an operator's ground-truth prefix labels the way the
// paper's carriers provided them: every owned block with demand, labeled
// cellular or fixed-line. Zero-demand inventory is included for cellular
// blocks only when includeIdle is set (carriers list allocations, but the
// paper's accuracy table covers active subnets).
func (w *World) CarrierTruth(op *Operator, includeIdle bool) map[netaddr.Block]bool {
	out := make(map[netaddr.Block]bool, len(op.Blocks))
	for _, b := range op.Blocks {
		if b.Demand <= 0 && !includeIdle {
			continue
		}
		out[b.Block] = b.Cellular
	}
	return out
}
