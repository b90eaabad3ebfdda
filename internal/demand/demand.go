// Package demand implements the DEMAND dataset: platform-wide request
// statistics aggregated per /24 and /48 block over a seven-day window,
// smoothed, and normalized into unit-less Demand Units (DU) where 1,000 DU
// equal 1% of global request demand (total 100,000 — the paper normalizes
// "out of 100,000 to increase precision").
package demand

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"cellspot/internal/netaddr"
	"cellspot/internal/par"
	"cellspot/internal/traffic"
	"cellspot/internal/world"
)

// TotalDU is the platform-wide Demand Unit total after normalization.
const TotalDU = 100000.0

// Dataset is the normalized per-block demand rollup: a row table in
// canonical block order. A block finds its row by binary search over the
// sorted block column, so the table holds no hash index. Row order is
// canonical order, so a caller that accumulates over rows in ascending
// order sums its floats in the same order Each does. It is immutable once
// built, so callers may keep values derived from it, row numbers included.
type Dataset struct {
	keys  []netaddr.Block // row → block, canonical order
	du    []float64       // row → demand units
	total float64
}

// NewDataset builds a normalized dataset from raw per-block weights.
// Weights may be any finite non-negative values; they are scaled to sum
// to TotalDU.
func NewDataset(raw map[netaddr.Block]float64) (*Dataset, error) {
	entries := make([]BlockDU, 0, len(raw))
	for b, v := range raw {
		entries = append(entries, BlockDU{Block: b, DU: v})
	}
	return newDataset(entries)
}

// newDataset puts entries, one per distinct block, into canonical block
// order and scales their weights to sum to TotalDU; it reorders entries in
// place. Entries in the world's block order are ascending within each
// family, so they cost a partition by family, not a sort. Summing and
// scaling run in canonical order because float addition is not
// associative: map or shard order would make two runs of the same world
// differ in their last bits. A negative or non-finite weight is reported
// for the first such block in canonical order, so the error is the same on
// every call.
func newDataset(entries []BlockDU) (*Dataset, error) {
	netaddr.SortByBlock(entries, func(e BlockDU) netaddr.Block { return e.Block })
	sum := 0.0
	n := 0
	for _, e := range entries {
		if math.IsNaN(e.DU) || math.IsInf(e.DU, 0) {
			return nil, fmt.Errorf("demand: non-finite demand %v for %v", e.DU, e.Block)
		}
		if e.DU < 0 {
			return nil, fmt.Errorf("demand: negative demand for %v", e.Block)
		}
		if e.DU > 0 {
			n++
		}
		sum += e.DU
	}
	d := &Dataset{}
	if sum == 0 {
		return d, nil
	}
	d.keys = make([]netaddr.Block, 0, n)
	d.du = make([]float64, 0, n)
	f := TotalDU / sum
	for _, e := range entries {
		if e.DU > 0 {
			d.keys = append(d.keys, e.Block)
			d.du = append(d.du, e.DU*f)
			d.total += e.DU * f
		}
	}
	return d, nil
}

// Row returns the block's row: its rank among the dataset's blocks in
// canonical order. ok reports whether the block has recorded demand.
func (d *Dataset) Row(b netaddr.Block) (int, bool) { return d.RowFrom(0, b) }

// RowFrom is Row for a caller that knows b sorts after the blocks of
// every row before from: it searches rows from on only. When b has no
// row, the index returned is the row b would take, so a caller that looks
// blocks up in ascending order can pass it as the next from.
func (d *Dataset) RowFrom(from int, b netaddr.Block) (int, bool) {
	i, ok := slices.BinarySearchFunc(d.keys[from:], b, netaddr.Block.Compare)
	return from + i, ok
}

// Key returns row i's block.
func (d *Dataset) Key(i int) netaddr.Block { return d.keys[i] }

// At returns row i's block and demand units.
func (d *Dataset) At(i int) (netaddr.Block, float64) { return d.keys[i], d.du[i] }

// DU returns the block's demand units (0 when unobserved).
func (d *Dataset) DU(b netaddr.Block) float64 {
	i, ok := d.Row(b)
	if !ok {
		return 0
	}
	return d.du[i]
}

// Total returns the dataset's DU total (TotalDU, modulo floating point,
// unless the dataset is empty).
func (d *Dataset) Total() float64 { return d.total }

// Blocks returns the number of blocks with demand, which is also the
// number of rows.
func (d *Dataset) Blocks() int { return len(d.keys) }

// CountFamily returns the number of demand-carrying blocks of a family.
func (d *Dataset) CountFamily(f netaddr.Family) int {
	n := 0
	for _, b := range d.keys {
		if b.Fam() == f {
			n++
		}
	}
	return n
}

// Each iterates over all (block, DU) pairs in canonical block order, so
// downstream floating-point accumulations are reproducible run to run.
func (d *Dataset) Each(fn func(netaddr.Block, float64)) {
	for i, b := range d.keys {
		fn(b, d.du[i])
	}
}

// Equal reports whether two datasets hold bit-identical DU values for the
// same block set.
func (d *Dataset) Equal(other *Dataset) bool {
	return slices.Equal(d.keys, other.keys) && slices.Equal(d.du, other.du)
}

// BlockDU pairs a block with its demand units.
type BlockDU struct {
	Block netaddr.Block `json:"block"`
	DU    float64       `json:"du"`
}

// GenConfig parameterizes DEMAND generation.
type GenConfig struct {
	Seed   uint64
	Days   int     // collection window (paper: 7, Dec 24–31 2016)
	Jitter float64 // per-day log-normal demand jitter

	// Parallelism is the worker count for sharded jitter sampling:
	// 0 = GOMAXPROCS, 1 = the serial oracle path. Outputs are
	// bit-identical at every setting — demand-carrying blocks split into
	// fixed-size contiguous shards, each on its own seed-derived PCG
	// stream, merged in shard order.
	Parallelism int
}

// DefaultGenConfig mirrors the paper's one-week window.
func DefaultGenConfig() GenConfig {
	return GenConfig{Seed: 3, Days: 7, Jitter: 0.15}
}

// Per-stage stream constants: dayStream drives the shared day factors,
// jitterStream^shardIndex drives each shard's per-block noise.
const (
	dayStream    = 0xdeaa_0001
	jitterStream = 0xdeaa_0100
)

// genShardSize is the number of demand-carrying blocks per jitter shard.
// Boundaries depend only on the block list, never on the worker count.
const genShardSize = 4096

// rollup draws each day's raw per-block demand from the world — block
// demand scaled by a shared day factor (weekends swell) and per-block daily
// noise — and normalizes fold(days) per demand-carrying block, where days
// holds the block's cfg.Days draws in day order. Jitter sampling shards
// across cfg.Parallelism workers (0 = GOMAXPROCS, 1 = serial) with one PCG
// stream per fixed-size shard of demand-carrying blocks. Each shard folds
// its blocks' days as it draws them and writes their entries into its own
// span, so the result is bit-identical at every parallelism level.
func rollup(w *world.World, cfg GenConfig, fold func(days []float64) float64) (*Dataset, error) {
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("demand: Days must be positive")
	}
	if cfg.Jitter < 0 {
		return nil, fmt.Errorf("demand: negative Jitter")
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, dayStream))
	dayFactors := traffic.DailyFactors(rng, cfg.Days, 0.05)

	// starts[s] is the index into w.Blocks of shard s's first block.
	var starts []int
	n := 0
	for i, b := range w.Blocks {
		if b.Demand > 0 {
			if n%genShardSize == 0 {
				starts = append(starts, i)
			}
			n++
		}
	}
	entries := make([]BlockDU, n)
	par.Do(len(starts), cfg.Parallelism, func(s int) {
		rng := rand.New(rand.NewPCG(cfg.Seed, jitterStream^uint64(s)))
		lo, hi := par.Span(s, n, genShardSize)
		days := make([]float64, cfg.Days)
		for i := starts[s]; lo < hi; i++ {
			b := w.Blocks[i]
			if b.Demand > 0 {
				for d := range days {
					v := b.Demand * dayFactors[d]
					if cfg.Jitter > 0 {
						v *= traffic.LogNormal(rng, 0, cfg.Jitter)
					}
					days[d] = v
				}
				entries[lo] = BlockDU{Block: b.Block, DU: fold(days)}
				lo++
			}
		}
	})
	return newDataset(entries)
}

// Generate builds the normalized dataset the paper analyzes: each block's
// mean across the window, summed in day order, scaled to TotalDU.
func Generate(w *world.World, cfg GenConfig) (*Dataset, error) {
	return rollup(w, cfg, func(days []float64) float64 {
		sum := 0.0
		for _, v := range days {
			sum += v
		}
		return sum / float64(len(days))
	})
}

// Day is day d of the window Generate smooths, normalized on its own — the
// no-smoothing ablation's DEMAND. It redraws the whole window, so only a
// caller that asks for a single day pays for it.
func Day(w *world.World, cfg GenConfig, d int) (*Dataset, error) {
	if d < 0 || d >= cfg.Days {
		return nil, fmt.Errorf("demand: day %d out of range [0,%d)", d, cfg.Days)
	}
	return rollup(w, cfg, func(days []float64) float64 { return days[d] })
}
