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

	"cellspot/internal/asn"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
)

// BlockInfo is the ground truth for one /24 or /48 block.
type BlockInfo struct {
	Block netaddr.Block
	ASN   uint32

	// Cellular is the ground-truth access type: true when traffic from
	// this block traverses a cellular radio.
	Cellular bool

	// WebActive reports whether the block produces browser page loads and
	// therefore appears in the BEACON dataset. Low-activity cellular
	// blocks (infrastructure, M2M) have demand but no beacons — the
	// paper's dominant false-negative source.
	WebActive bool

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

	// RAT is the owning operator's radio-generation adoption profile,
	// copied onto cellular blocks; the mix of 3G/4G/5G traffic a block
	// carries in a month is RAT.Mix(month). Meaningless for fixed blocks.
	RAT netinfo.RATProfile

	// HitsOverride, when positive, fixes the block's API-enabled beacon
	// hit count instead of deriving it from demand. Used by noise blocks
	// (stray tethers, IoT operators) that need specific tiny hit counts.
	HitsOverride int
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
	Resolvers []*Resolver

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
