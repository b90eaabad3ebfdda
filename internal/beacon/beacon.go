// Package beacon implements the BEACON dataset: Real-User-Monitoring beacon
// records carrying Network Information API data, their generation from a
// synthetic world, and the per-block aggregation the classifier consumes.
//
// Two generation paths exist with the same underlying distributions:
//
//   - Aggregate: the fast path. Hit tallies are drawn per block
//     (Poisson/Binomial), never materializing individual records. Used by
//     the full-scale pipeline and benchmarks.
//   - Stream: the record path. Emits individual Records suitable for JSONL
//     logs and the RUM collector examples.
package beacon

import (
	"fmt"
	"iter"
	"math"
	"math/rand/v2"
	"net/netip"
	"time"

	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/par"
	"cellspot/internal/traffic"
	"cellspot/internal/world"
)

// Record is one RUM beacon hit as logged by the collector.
type Record struct {
	Time       time.Time  `json:"ts"`
	IP         netip.Addr `json:"ip"`
	Conn       string     `json:"conn,omitempty"` // Network Information token; empty when the API is absent
	RAT        string     `json:"rat,omitempty"`  // radio generation ("3g"/"4g"/"5g") on cellular-labeled hits; empty on legacy logs
	Browser    string     `json:"browser"`
	PageLoadMS int        `json:"plt_ms"`
}

// HasAPI reports whether the hit carried Network Information data.
func (r Record) HasAPI() bool { return r.Conn != "" }

// MaxFieldBytes bounds a record's free-form string fields (browser, rat).
// The spool encoder escapes '<', '>' and '&' sixfold, so one POST of an
// unbounded field could write a spool line over logio.MaxLineBytes, which
// no segment can carry: the federation shipper would stop at that shard
// for good. Real values are a few dozen bytes.
const MaxFieldBytes = 1 << 10

// Validate is the one rule every record must pass to be collected or
// folded: a valid IP, a known Network Information token (or none), and
// browser and rat within MaxFieldBytes. The collector refuses a POST with
// a record that fails it; the fold paths skip such a line as bad.
func (r Record) Validate() error {
	if !r.IP.IsValid() {
		return fmt.Errorf("missing or invalid IP")
	}
	if _, err := netinfo.ParseConnectionType(r.Conn); err != nil {
		return err
	}
	if len(r.Browser) > MaxFieldBytes || len(r.RAT) > MaxFieldBytes {
		return fmt.Errorf("browser or rat over %d bytes", MaxFieldBytes)
	}
	return nil
}

// Counts tallies one block's beacon activity. The per-RAT fields split
// Cell by radio generation; logs predating the RAT column leave them zero.
type Counts struct {
	Hits   int `json:"hits"`              // all beacon responses
	API    int `json:"api"`               // responses with Network Information data
	Cell   int `json:"cell"`              // responses labeled cellular
	Cell3G int `json:"cell_3g,omitempty"` // cellular labels on a 3G radio
	Cell4G int `json:"cell_4g,omitempty"` // cellular labels on a 4G radio
	Cell5G int `json:"cell_5g,omitempty"` // cellular labels on a 5G radio
}

// add accumulates another tally, per-RAT columns included.
func (c *Counts) add(n Counts) {
	c.Hits += n.Hits
	c.API += n.API
	c.Cell += n.Cell
	c.Cell3G += n.Cell3G
	c.Cell4G += n.Cell4G
	c.Cell5G += n.Cell5G
}

// addRAT increments the counter for one radio generation.
func (c *Counts) addRAT(r netinfo.RAT, n int) {
	switch r {
	case netinfo.RAT3G:
		c.Cell3G += n
	case netinfo.RAT4G:
		c.Cell4G += n
	case netinfo.RAT5G:
		c.Cell5G += n
	}
}

// Aggregate is the per-block BEACON rollup.
type Aggregate struct {
	PerBlock map[netaddr.Block]*Counts
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{PerBlock: make(map[netaddr.Block]*Counts)}
}

// counts returns the block's tally, creating it when absent.
func (a *Aggregate) counts(b netaddr.Block) *Counts {
	c := a.PerBlock[b]
	if c == nil {
		c = &Counts{}
		a.PerBlock[b] = c
	}
	return c
}

// Add accumulates counts for a block.
func (a *Aggregate) Add(b netaddr.Block, hits, api, cell int) {
	c := a.counts(b)
	c.Hits += hits
	c.API += api
	c.Cell += cell
}

// AddCounts accumulates a full tally — including the per-RAT split — for a
// block; checkpoint restore paths use it so RAT counters survive restarts.
func (a *Aggregate) AddCounts(b netaddr.Block, n Counts) {
	a.counts(b).add(n)
}

// AddRecord accumulates one beacon record.
func (a *Aggregate) AddRecord(r Record) {
	c := a.counts(netaddr.BlockFromAddr(r.IP))
	c.Hits++
	if !r.HasAPI() {
		return
	}
	c.API++
	if r.Conn != netinfo.ConnCellular.String() {
		return
	}
	c.Cell++
	if rat, err := netinfo.ParseRAT(r.RAT); err == nil {
		c.addRAT(rat, 1)
	}
}

// Merge folds another aggregate into a, per-RAT columns included.
func (a *Aggregate) Merge(other *Aggregate) {
	for b, oc := range other.PerBlock {
		a.counts(b).add(*oc)
	}
}

// Ratio returns a block's cellular ratio (cellular hits over API-enabled
// hits) and whether the block has any API-enabled hits at all.
func (a *Aggregate) Ratio(b netaddr.Block) (float64, bool) {
	c := a.PerBlock[b]
	if c == nil || c.API == 0 {
		return 0, false
	}
	return float64(c.Cell) / float64(c.API), true
}

// Blocks returns the number of blocks observed.
func (a *Aggregate) Blocks() int { return len(a.PerBlock) }

// CountFamily returns the number of observed blocks of a family.
func (a *Aggregate) CountFamily(f netaddr.Family) int {
	n := 0
	for b := range a.PerBlock {
		if b.Fam() == f {
			n++
		}
	}
	return n
}

// Equal reports whether two aggregates hold exactly the same per-block
// counts — the bit-identical comparison the ingestion and live-path
// equivalence suites are built on.
func (a *Aggregate) Equal(other *Aggregate) bool {
	if len(a.PerBlock) != len(other.PerBlock) {
		return false
	}
	for b, c := range a.PerBlock {
		oc := other.PerBlock[b]
		if oc == nil || *c != *oc {
			return false
		}
	}
	return true
}

// Totals sums counts across all blocks.
func (a *Aggregate) Totals() Counts {
	var t Counts
	for _, c := range a.PerBlock {
		t.add(*c)
	}
	return t
}

// GenConfig parameterizes BEACON generation.
type GenConfig struct {
	// Seed drives hit sampling (independent from the world seed).
	Seed uint64

	// TotalHits is the number of beacon responses to model across the
	// whole platform. It does NOT scale with the world's block scale:
	// real beacon volume dwarfs block counts, and the AS-filter rule
	// "fewer than 300 beacon responses" is an absolute threshold.
	TotalHits int

	// BaseHits is the demand-independent Poisson mean of hits per
	// web-active block; the rest of TotalHits is spread by demand.
	BaseHits float64

	// Month sets the collection month (API adoption level).
	Month netinfo.Month

	// Parallelism is the worker count for sharded hit synthesis:
	// 0 = GOMAXPROCS, 1 = the serial oracle path. Aggregates are
	// bit-identical at every setting: blocks are split into fixed-size
	// contiguous shards, each drawing from its own seed-derived PCG
	// stream, merged in shard order.
	Parallelism int
}

// DefaultGenConfig mirrors the paper's December 2016 collection.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Seed:      2,
		TotalHits: 25_000_000,
		BaseHits:  250,
		Month:     netinfo.December2016,
	}
}

func (c *GenConfig) validate() error {
	if c.TotalHits <= 0 {
		return fmt.Errorf("beacon: TotalHits must be positive")
	}
	if c.BaseHits < 0 {
		return fmt.Errorf("beacon: negative BaseHits")
	}
	// A NaN mean never ends the Poisson loop and an infinite one makes
	// negative hit counts, so only finite values pass.
	if math.IsNaN(c.BaseHits) || math.IsInf(c.BaseHits, 0) {
		return fmt.Errorf("beacon: BaseHits %v is not finite", c.BaseHits)
	}
	if c.Month == (netinfo.Month{}) {
		c.Month = netinfo.December2016
	}
	return nil
}

// blockPlan is the per-block expected hit count and label probabilities.
type blockPlan struct {
	info     *world.BlockInfo
	meanHits float64
	apiProb  float64
}

// plan computes each web-active block's expected hits. The demand-driven
// share of TotalHits is what remains after base hits.
func plan(w *world.World, cfg GenConfig) []blockPlan {
	apiCell, _ := netinfo.ExpectedAPIShare(cfg.Month, 1)
	apiFixed, _ := netinfo.ExpectedAPIShare(cfg.Month, 0)

	var webDemand float64
	nWeb := 0
	for _, b := range w.Blocks {
		if b.WebActive {
			webDemand += b.Demand
			nWeb++
		}
	}
	demandBudget := float64(cfg.TotalHits) - cfg.BaseHits*float64(nWeb)
	if demandBudget < 0 {
		demandBudget = 0
	}

	plans := make([]blockPlan, 0, nWeb)
	for _, b := range w.Blocks {
		if !b.WebActive && b.HitsOverride == 0 {
			continue
		}
		p := blockPlan{info: b, apiProb: apiFixed}
		if b.Cellular {
			p.apiProb = apiCell
		}
		switch {
		case b.HitsOverride > 0:
			// Overridden blocks fix their API hit count; total hits follow.
			p.meanHits = float64(b.HitsOverride) / p.apiProb
		case webDemand > 0:
			p.meanHits = cfg.BaseHits + demandBudget*b.Demand/webDemand
		default:
			p.meanHits = cfg.BaseHits
		}
		plans = append(plans, p)
	}
	return plans
}

// aggStream is the per-shard stream constant of the aggregate path; shard
// s draws from PCG(cfg.Seed, aggStream^s).
const aggStream = 0xbeac0_0001

// ratStream seeds the per-block radio-generation split. RAT draws come
// from their own PCG keyed on the block, NOT from the shard stream: the
// pre-RAT hit/api/cell draw sequences stay bit-identical, and the split is
// a function of (seed, block) alone — trivially parallelism-independent.
const ratStream = 0xbeac0_0003

// ratStreamFor mixes a block identity into the RAT stream constant.
func ratStreamFor(b netaddr.Block) uint64 {
	return ratStream ^ (b.Key()*0x9e3779b97f4a7c15 + uint64(b.Fam()))
}

// splitRAT partitions cell cellular labels across radio generations by a
// conditional-binomial walk over the mix.
func splitRAT(rng *rand.Rand, cell int, mix netinfo.RATMix) (c3, c4, c5 int) {
	c3 = traffic.Binomial(rng, cell, mix[netinfo.RAT3G])
	rest := cell - c3
	p45 := mix[netinfo.RAT4G] + mix[netinfo.RAT5G]
	if p45 <= 0 {
		c4 = rest
		return c3, c4, 0
	}
	c4 = traffic.Binomial(rng, rest, mix[netinfo.RAT4G]/p45)
	return c3, c4, rest - c4
}

// genShardSize is the number of block plans per sampling shard. Shard
// boundaries depend only on the plan list, never on the worker count, so
// hit tallies are identical at every parallelism level.
const genShardSize = 2048

// tally is one shard-local sampled block outcome awaiting merge.
type tally struct {
	block netaddr.Block
	c     Counts
}

// sampleShard draws shard s's blocks from PCG(cfg.Seed, aggStream^s) and
// hands each sampled block to emit in plan order. Generate and
// GenerateTotals both run it, so they draw the same values.
func sampleShard(plans []blockPlan, cfg GenConfig, s int, emit func(netaddr.Block, Counts)) {
	src := rand.NewPCG(cfg.Seed, aggStream^uint64(s))
	rng := rand.New(src)
	// One RAT generator, reseeded per block: Seed leaves it in the state
	// NewPCG would, so the split is the same without a generator per block.
	var ratSrc rand.PCG
	ratRng := rand.New(&ratSrc)
	lo, hi := par.Span(s, len(plans), genShardSize)
	for _, p := range plans[lo:hi] {
		hits := traffic.PoissonSmall(src, p.meanHits)
		var api int
		if p.info.HitsOverride > 0 {
			api = p.info.HitsOverride
			if hits < api {
				hits = api
			}
		} else {
			if hits == 0 {
				continue
			}
			api = traffic.Binomial(rng, hits, p.apiProb)
		}
		cell := traffic.Binomial(rng, api, p.info.CellLabelProb)
		c := Counts{Hits: hits, API: api, Cell: cell}
		if cell > 0 && p.info.Cellular {
			ratSrc.Seed(cfg.Seed, ratStreamFor(p.info.Block))
			c.Cell3G, c.Cell4G, c.Cell5G = splitRAT(ratRng, cell, p.info.RAT.Mix(cfg.Month))
		}
		emit(p.info.Block, c)
	}
}

// Generate draws the per-block BEACON aggregate for a world: the fast path
// used by the pipeline. Hits, API-enabled hits, and cellular labels are
// sampled per block without materializing records. Sampling shards across
// cfg.Parallelism workers (0 = GOMAXPROCS, 1 = serial) with one PCG stream
// per fixed-size shard; shard outputs merge in shard order, so the
// aggregate is bit-identical at every parallelism level. The merge sizes
// PerBlock from the shard tallies and backs every Counts with one slab.
func Generate(w *world.World, cfg GenConfig) (*Aggregate, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plans := plan(w, cfg)
	nShards := par.Shards(len(plans), genShardSize)
	outs := make([][]tally, nShards)
	par.Do(nShards, cfg.Parallelism, func(s int) {
		lo, hi := par.Span(s, len(plans), genShardSize)
		buf := make([]tally, 0, hi-lo)
		sampleShard(plans, cfg, s, func(b netaddr.Block, c Counts) {
			buf = append(buf, tally{block: b, c: c})
		})
		outs[s] = buf
	})
	n := 0
	for _, ts := range outs {
		n += len(ts)
	}
	agg := &Aggregate{PerBlock: make(map[netaddr.Block]*Counts, n)}
	slab := make([]Counts, 0, n)
	for _, ts := range outs {
		for _, t := range ts {
			// A repeated block adds to its first tally, as counts would.
			if c := agg.PerBlock[t.block]; c != nil {
				c.add(t.c)
				continue
			}
			slab = append(slab, t.c)
			agg.PerBlock[t.block] = &slab[len(slab)-1]
		}
	}
	return agg, nil
}

// GenerateTotals returns Generate(w, cfg).Totals() without building the
// aggregate: each shard sums its blocks into one Counts, and the shard
// sums add up in shard order.
func GenerateTotals(w *world.World, cfg GenConfig) (Counts, error) {
	if err := cfg.validate(); err != nil {
		return Counts{}, err
	}
	plans := plan(w, cfg)
	sums := make([]Counts, par.Shards(len(plans), genShardSize))
	par.Do(len(sums), cfg.Parallelism, func(s int) {
		var sum Counts
		sampleShard(plans, cfg, s, func(_ netaddr.Block, c Counts) { sum.add(c) })
		sums[s] = sum
	})
	var t Counts
	for _, c := range sums {
		t.add(c)
	}
	return t, nil
}

// Stream emits individual beacon records for a world. The caller bounds the
// volume through cfg.TotalHits; timestamps spread uniformly over the month.
// The record path draws browser and connection type per hit with the same
// marginal distributions the aggregate path uses.
func Stream(w *world.World, cfg GenConfig) (iter.Seq[Record], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	plans := plan(w, cfg)
	start := time.Date(cfg.Month.Year, time.Month(cfg.Month.Mon), 1, 0, 0, 0, 0, time.UTC)
	monthDur := start.AddDate(0, 1, 0).Sub(start)

	return func(yield func(Record) bool) {
		src := rand.NewPCG(cfg.Seed, 0xbeac0_0002)
		rng := rand.New(src)
		// RAT draws come from their own stream so the pre-RAT record
		// sequence (timestamps, IPs, browsers, labels) is unchanged.
		ratRng := rand.New(rand.NewPCG(cfg.Seed, 0xbeac0_0004))
		for _, p := range plans {
			hits := traffic.PoissonSmall(src, p.meanHits)
			forcedAPI := p.info.HitsOverride
			if forcedAPI > hits {
				hits = forcedAPI
			}
			for h := 0; h < hits; h++ {
				rec := Record{
					Time:       start.Add(time.Duration(rng.Int64N(int64(monthDur)))),
					IP:         p.info.Block.HostAddr(uint64(rng.Uint32())),
					Browser:    netinfo.SampleBrowser(rng, p.info.Cellular).String(),
					PageLoadMS: 400 + int(traffic.LogNormal(rng, 6.2, 0.7)),
				}
				hasAPI := h < forcedAPI
				if forcedAPI == 0 {
					hasAPI = rng.Float64() < p.apiProb
				}
				if hasAPI {
					conn := sampleConn(rng, p.info)
					rec.Conn = conn.String()
					if conn == netinfo.ConnCellular && p.info.Cellular {
						rec.RAT = sampleRAT(ratRng, p.info.RAT.Mix(cfg.Month)).String()
					}
				}
				if !yield(rec) {
					return
				}
			}
		}
	}, nil
}

// sampleRAT draws a radio generation from a mix.
func sampleRAT(rng *rand.Rand, mix netinfo.RATMix) netinfo.RAT {
	u := rng.Float64()
	cum := 0.0
	for r := netinfo.RAT(0); r < netinfo.NumRATs; r++ {
		cum += mix[r]
		if u < cum {
			return r
		}
	}
	return netinfo.RAT4G
}

// sampleConn draws the reported ConnectionType for an API-enabled hit.
func sampleConn(rng *rand.Rand, b *world.BlockInfo) netinfo.ConnectionType {
	if rng.Float64() < b.CellLabelProb {
		return netinfo.ConnCellular
	}
	if b.Cellular {
		return netinfo.ConnWiFi // tethered / hotspot devices
	}
	// Fixed lines: mostly WiFi devices, some wired, rare oddities.
	u := rng.Float64()
	switch {
	case u < 0.85:
		return netinfo.ConnWiFi
	case u < 0.995:
		return netinfo.ConnEthernet
	case u < 0.998:
		return netinfo.ConnWiMAX
	default:
		return netinfo.ConnBluetooth
	}
}
