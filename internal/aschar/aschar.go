// Package aschar lifts subnet-level cellular labels to autonomous systems
// (paper §5–6): the straw-man tagging of any AS with one cellular block,
// the three filtering heuristics of Table 5, the mixed/dedicated
// classification by cellular fraction of demand, and the demand rankings
// behind Figs 4–8 and Table 7.
//
// Measurement inputs are public-knowledge equivalents only: BGP-style
// block→AS mapping, the CAIDA-style class snapshot, the BEACON aggregate,
// and the DEMAND dataset. Ground-truth roles never enter.
package aschar

import (
	"cmp"
	"slices"

	"cellspot/internal/asn"
	"cellspot/internal/beacon"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// Stats is the per-AS rollup the filters and characterization consume.
type Stats struct {
	ASN uint32

	// Blocks counts blocks observed in DEMAND or BEACON; CellBlocks those
	// labeled cellular, split by family.
	Blocks, CellBlocks         int
	CellBlocks24, CellBlocks48 int

	// Hits is the AS's total beacon responses; APIHits and CellHits the
	// Network-Information subsets.
	Hits, APIHits, CellHits int

	// TotalDU is the AS's platform demand; CellDU the demand of its
	// cellular-labeled blocks.
	TotalDU, CellDU float64
}

// CFD returns the AS's cellular fraction of demand (§6.1).
func (s *Stats) CFD() float64 {
	if s.TotalDU == 0 {
		return 0
	}
	return s.CellDU / s.TotalDU
}

// CellBlockFraction returns the fraction of the AS's observed blocks that
// are labeled cellular (Fig 5's second curve).
func (s *Stats) CellBlockFraction() float64 {
	if s.Blocks == 0 {
		return 0
	}
	return float64(s.CellBlocks) / float64(s.Blocks)
}

// Inputs bundles the measurement-side data for AS aggregation.
type Inputs struct {
	Detected netaddr.Set       // classifier output
	Beacon   *beacon.Aggregate // per-block hit tallies
	Demand   *demand.Dataset   // per-block DU
	// ASOf maps a block to its originating AS, as a BGP table would.
	ASOf func(netaddr.Block) (uint32, bool)
}

// BuildStats aggregates blocks into per-AS statistics.
func BuildStats(in Inputs) map[uint32]*Stats {
	return NewRollup(in.Demand, in.ASOf, in.ASOf).Stats(in.Detected, in.Beacon)
}

// Rollup is the demand side of BuildStats: each AS's block count and
// total demand over a DEMAND dataset, summed in the dataset's canonical
// block order, and each demand row's AS, resolved once. It depends only
// on the dataset and the block→AS mapping, so a caller that builds stats
// for a sequence of beacon aggregates over the same inputs pays the walk
// over every demand block once. The dataset is immutable and the kept
// asOf stateless, which is what makes the rollup safe to keep and to
// share between goroutines.
type Rollup struct {
	demand *demand.Dataset // nil: no demand-side input
	asOf   func(netaddr.Block) (uint32, bool)
	base   []Stats          // Blocks and TotalDU per AS with mapped demand
	asIdx  []int32          // demand row → index into base, -1 when unmapped
	idx    map[uint32]int32 // AS → index into base
}

// NewRollup walks the dataset once; d may be nil. walk answers the
// walk's block→AS lookups, one per row in canonical block order, and is
// not kept: it may be a stateful cursor such as world.Cursor's ASOf.
// asOf answers the later lookups for beacon-only blocks and is kept, so it
// must be safe to call from any goroutine. Both must give the same
// answers.
func NewRollup(d *demand.Dataset, asOf, walk func(netaddr.Block) (uint32, bool)) *Rollup {
	r := &Rollup{demand: d, asOf: asOf, idx: make(map[uint32]int32)}
	if d == nil {
		return r
	}
	r.asIdx = make([]int32, d.Blocks())
	// Blocks are allocated to ASes in runs, so consecutive rows mostly
	// share an AS: the last one found answers before the AS map is asked.
	last, lastIdx := uint32(0), int32(-1)
	for row := range r.asIdx {
		b, du := d.At(row)
		a, ok := walk(b)
		if !ok {
			r.asIdx[row] = -1
			continue
		}
		i := lastIdx
		if i < 0 || a != last {
			var known bool
			if i, known = r.idx[a]; !known {
				i = int32(len(r.base))
				r.idx[a] = i
				r.base = append(r.base, Stats{ASN: a})
			}
			last, lastIdx = a, i
		}
		r.asIdx[row] = i
		r.base[i].Blocks++
		r.base[i].TotalDU += du
	}
	return r
}

// ASes returns the number of ASes with mapped demand; Resolve numbers
// them 0 to ASes()-1.
func (r *Rollup) ASes() int { return len(r.base) }

// ASN returns the number of the AS with index i.
func (r *Rollup) ASN(i int) uint32 { return r.base[i].ASN }

// EachRow calls fn for every demand row in canonical block order with
// the row's block, its demand units and its AS index (-1 when the
// block maps to no AS).
func (r *Rollup) EachRow(fn func(b netaddr.Block, du float64, as int)) {
	for row, i := range r.asIdx {
		b, du := r.demand.At(row)
		fn(b, du, int(i))
	}
}

// ResolveBeacon calls fn for every block of agg that maps to an AS, in
// canonical block order, with the AS number and its index (-1 when the
// AS has no mapped demand). A block with demand finds its AS in the row
// column NewRollup filled; only beacon-only blocks ask asOf.
func (r *Rollup) ResolveBeacon(agg *beacon.Aggregate, fn func(b netaddr.Block, asNum uint32, i int)) {
	r.joinBeacon(agg, func(b netaddr.Block, _ beacon.Counts, row int) {
		if row >= 0 {
			if i := r.asIdx[row]; i >= 0 {
				fn(b, r.base[i].ASN, int(i))
			}
			return
		}
		if a, ok := r.asOf(b); ok {
			i, known := r.idx[a]
			if !known {
				i = -1
			}
			fn(b, a, int(i))
		}
	})
}

// joinBeacon calls fn for every block of agg in canonical block order
// with the block, its tally and its demand row, or -1 when the block has
// no demand. The beacon rows, in canonical order as Generate and Sum emit
// them, and the demand rows pair up in one merge walk, with no hash probe
// per block; an aggregate grown in arrival order is summed into canonical
// order first.
func (r *Rollup) joinBeacon(agg *beacon.Aggregate, fn func(b netaddr.Block, c beacon.Counts, row int)) {
	if !agg.Sorted() {
		agg = beacon.Sum([]*beacon.Aggregate{agg})
	}
	rows := 0
	if r.demand != nil {
		rows = r.demand.Blocks()
	}
	j := 0
	for i := range agg.Blocks() {
		b, c := agg.At(i)
		for j < rows && r.demand.Key(j).Less(b) {
			j++
		}
		if j < rows && r.demand.Key(j) == b {
			fn(b, c, j)
		} else {
			fn(b, c, -1)
		}
	}
}

// Stats completes the rollup with one beacon aggregate and its detected
// set, returning exactly what BuildStats returns for the same inputs.
// Its cost scales with the aggregate and the detected set, not with the
// dataset. The detected blocks, in canonical order, find their demand
// rows in one ascending pass, each binary search starting after the last
// hit, so CellDU sums each AS's detected demand rows in ascending row
// order, which is canonical block order, and every float is bit-identical
// to a single pass over the dataset. The aggregate's rows merge-join the
// demand rows, so a block with demand finds its AS in the row column
// without a hash probe; only beacon-only blocks ask asOf, and they step
// through the detected set in the same walk. Beacon tallies are integers,
// so their order of addition does not matter.
func (r *Rollup) Stats(detected netaddr.Set, agg *beacon.Aggregate) map[uint32]*Stats {
	vals := slices.Clone(r.base)
	var more map[uint32]*Stats // ASes with no mapped demand
	if r.demand != nil {
		row := 0
		for b := range detected.All() {
			var ok bool
			if row, ok = r.demand.RowFrom(row, b); !ok {
				continue
			}
			if i := r.asIdx[row]; i >= 0 {
				vals[i].addCellBlock(b)
				_, du := r.demand.At(row)
				vals[i].CellDU += du
			}
			row++
		}
	}
	if agg != nil {
		cell := detected.Ascending()
		r.joinBeacon(agg, func(b netaddr.Block, c beacon.Counts, row int) {
			var s *Stats
			if row >= 0 {
				i := r.asIdx[row]
				if i < 0 {
					return
				}
				s = &vals[i]
			} else {
				// Beacon-only block (no recorded demand).
				a, ok := r.asOf(b)
				if !ok {
					return
				}
				if i, known := r.idx[a]; known {
					s = &vals[i]
				} else if s = more[a]; s == nil {
					if more == nil {
						more = make(map[uint32]*Stats)
					}
					s = &Stats{ASN: a}
					more[a] = s
				}
				s.Blocks++
				if cell(b) {
					s.addCellBlock(b)
				}
			}
			s.Hits += c.Hits
			s.APIHits += c.API
			s.CellHits += c.Cell
		})
	}
	stats := make(map[uint32]*Stats, len(vals)+len(more))
	for i := range vals {
		stats[vals[i].ASN] = &vals[i]
	}
	for a, s := range more {
		stats[a] = s
	}
	return stats
}

func (s *Stats) addCellBlock(b netaddr.Block) {
	s.CellBlocks++
	if b.IsV6() {
		s.CellBlocks48++
	} else {
		s.CellBlocks24++
	}
}

// Rules holds the paper's AS-filter parameters (Table 5).
type Rules struct {
	// MinCellDU excludes ASes whose cumulative cellular demand is below
	// this many Demand Units (paper: 0.1).
	MinCellDU float64
	// MinHits excludes ASes with fewer beacon responses (paper: 300).
	MinHits int
	// Snapshot is the CAIDA-style classification; ASes labeled Content or
	// absent ("no known class") are excluded.
	Snapshot *asn.Snapshot
}

// DefaultRules mirrors the paper's thresholds.
func DefaultRules(snap *asn.Snapshot) Rules {
	return Rules{MinCellDU: 0.1, MinHits: 300, Snapshot: snap}
}

// FilterResult records each stage of the AS filtering pipeline.
type FilterResult struct {
	Tagged     []uint32 // straw-man: >= 1 cellular block
	AfterRule1 []uint32 // cellular demand >= MinCellDU
	AfterRule2 []uint32 // beacon hits >= MinHits
	AfterRule3 []uint32 // acceptable AS class — the final cellular AS set
}

// Removed returns how many ASes each rule filtered.
func (r FilterResult) Removed() (rule1, rule2, rule3 int) {
	return len(r.Tagged) - len(r.AfterRule1),
		len(r.AfterRule1) - len(r.AfterRule2),
		len(r.AfterRule2) - len(r.AfterRule3)
}

// Cellular returns the final cellular AS set, AfterRule3, as a set.
func (r FilterResult) Cellular() map[uint32]bool {
	out := make(map[uint32]bool, len(r.AfterRule3))
	for _, a := range r.AfterRule3 {
		out[a] = true
	}
	return out
}

// Filter applies the straw-man tagging and the three exclusion rules in the
// paper's order. Output slices are sorted by AS number.
func Filter(stats map[uint32]*Stats, rules Rules) FilterResult {
	var res FilterResult
	for a, s := range stats {
		if s.CellBlocks > 0 {
			res.Tagged = append(res.Tagged, a)
		}
	}
	slices.Sort(res.Tagged)

	for _, a := range res.Tagged {
		if stats[a].CellDU >= rules.MinCellDU {
			res.AfterRule1 = append(res.AfterRule1, a)
		}
	}
	for _, a := range res.AfterRule1 {
		if stats[a].Hits >= rules.MinHits {
			res.AfterRule2 = append(res.AfterRule2, a)
		}
	}
	for _, a := range res.AfterRule2 {
		if rules.Snapshot == nil {
			res.AfterRule3 = append(res.AfterRule3, a)
			continue
		}
		switch rules.Snapshot.Class(a) {
		case asn.ClassTransitAccess, asn.ClassEnterprise:
			res.AfterRule3 = append(res.AfterRule3, a)
		}
	}
	return res
}

// DedicatedCFD is the paper's cut: ASes with at least 90% of their demand
// cellular are dedicated; below that they are mixed (§6.1).
const DedicatedCFD = 0.9

// Network is one identified cellular AS with its characterization.
type Network struct {
	*Stats
	Dedicated bool
}

// Characterize labels each identified cellular AS mixed or dedicated.
func Characterize(final []uint32, stats map[uint32]*Stats) []Network {
	out := make([]Network, 0, len(final))
	for _, a := range final {
		s := stats[a]
		out = append(out, Network{Stats: s, Dedicated: s.CFD() >= DedicatedCFD})
	}
	return out
}

// RankByCellDU sorts networks by descending cellular demand (Fig 7,
// Table 7). Ties break on AS number for determinism.
func RankByCellDU(nets []Network) []Network {
	out := append([]Network(nil), nets...)
	slices.SortFunc(out, func(a, b Network) int {
		return cmp.Or(cmp.Compare(b.CellDU, a.CellDU), cmp.Compare(a.ASN, b.ASN))
	})
	return out
}

// BlockView is one block of an AS with its measured cellular ratio and
// demand — the unit of Fig 6's per-operator breakdown and Fig 8's ranked
// subnet series.
type BlockView struct {
	Block netaddr.Block
	Ratio float64 // 0 when the block has no API-enabled hits
	DU    float64
	Cell  bool // classifier label
}

// OperatorBlocks assembles the per-block view of one AS over an announced
// block list (BGP-style, so idle inventory shows up at ratio 0 with zero
// demand, as in Fig 6a).
func OperatorBlocks(announced []netaddr.Block, in Inputs) []BlockView {
	out := make([]BlockView, 0, len(announced))
	for _, b := range announced {
		v := BlockView{Block: b, Cell: in.Detected.Has(b)}
		if in.Beacon != nil {
			if r, ok := in.Beacon.Ratio(b); ok {
				v.Ratio = r
			}
		}
		if in.Demand != nil {
			v.DU = in.Demand.DU(b)
		}
		out = append(out, v)
	}
	slices.SortFunc(out, func(a, b BlockView) int {
		return cmp.Or(cmp.Compare(a.Ratio, b.Ratio), a.Block.Compare(b.Block))
	})
	return out
}
