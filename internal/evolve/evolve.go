// Package evolve implements the paper's declared future work (§8):
// studying how cellular addresses evolve over time — how blocks shift
// between cellular and fixed assignments, and how demand moves across
// cellular address space. It simulates a sequence of monthly snapshots on
// top of a generated world (CGNAT pool reassignments, demand drift),
// classifies each month independently, and reports label churn and
// heavy-hitter stability.
package evolve

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/traffic"
	"cellspot/internal/world"
)

// Config parameterizes the monthly evolution.
type Config struct {
	Seed   uint64
	Months int // snapshots to simulate (>= 2 for churn stats)

	// ChurnRate is the fraction of active cellular blocks reassigned each
	// month: the old block goes dark and a freshly allocated block takes
	// over its role (CGNAT pool rotation, renumbering).
	ChurnRate float64

	// DemandDrift is the per-block monthly log-normal demand multiplier
	// sigma.
	DemandDrift float64

	// Start is the first snapshot's month (API adoption level follows it).
	Start netinfo.Month

	// Beacon and Demand configure per-month dataset generation; their
	// seeds are offset by the month index.
	Beacon beacon.GenConfig
	Demand demand.GenConfig

	// Threshold is the classifier operating point.
	Threshold float64
}

// DefaultConfig evolves six months from the paper's collection month.
func DefaultConfig() Config {
	return Config{
		Seed:        11,
		Months:      6,
		ChurnRate:   0.04,
		DemandDrift: 0.10,
		Start:       netinfo.December2016,
		Beacon:      beacon.DefaultGenConfig(),
		Demand:      demand.DefaultGenConfig(),
		Threshold:   classify.DefaultThreshold,
	}
}

// Snapshot is one month's measured state.
type Snapshot struct {
	Month    netinfo.Month
	Detected netaddr.Set
	// CellDU is the demand covered by detected cellular blocks.
	CellDU float64
	// TopBlocks are the 100 highest-demand detected cellular blocks.
	TopBlocks []netaddr.Block
}

// ChurnStats compares consecutive snapshots.
type ChurnStats struct {
	From, To netinfo.Month
	// Jaccard is |A∩B| / |A∪B| over the detected block sets.
	Jaccard float64
	// Added and Removed count blocks entering/leaving the detected set.
	Added, Removed int
	// TopOverlap is the fraction of the previous month's top blocks still
	// among the current month's top blocks.
	TopOverlap float64
}

// Timeline is the full evolution result.
type Timeline struct {
	Snapshots []Snapshot
}

// Churn returns month-over-month churn statistics (len = Months-1).
func (t *Timeline) Churn() []ChurnStats {
	var out []ChurnStats
	for i := 1; i < len(t.Snapshots); i++ {
		prev, cur := t.Snapshots[i-1], t.Snapshots[i]
		inter, union := 0, 0
		for b := range prev.Detected {
			if cur.Detected.Has(b) {
				inter++
			}
		}
		union = prev.Detected.Len() + cur.Detected.Len() - inter
		cs := ChurnStats{
			From:    prev.Month,
			To:      cur.Month,
			Added:   cur.Detected.Len() - inter,
			Removed: prev.Detected.Len() - inter,
		}
		if union > 0 {
			cs.Jaccard = float64(inter) / float64(union)
		}
		if len(prev.TopBlocks) > 0 {
			curTop := netaddr.NewSet(cur.TopBlocks...)
			kept := 0
			for _, b := range prev.TopBlocks {
				if curTop.Has(b) {
					kept++
				}
			}
			cs.TopOverlap = float64(kept) / float64(len(prev.TopBlocks))
		}
		out = append(out, cs)
	}
	return out
}

// Run simulates the evolution. The input world is cloned; the caller's
// world is never mutated.
func Run(w *world.World, cfg Config) (*Timeline, error) {
	if cfg.Months < 1 {
		return nil, fmt.Errorf("evolve: Months must be >= 1")
	}
	if cfg.ChurnRate < 0 || cfg.ChurnRate > 1 {
		return nil, fmt.Errorf("evolve: ChurnRate %g out of [0,1]", cfg.ChurnRate)
	}
	if cfg.DemandDrift < 0 {
		return nil, fmt.Errorf("evolve: negative DemandDrift")
	}
	if cfg.Start == (netinfo.Month{}) {
		cfg.Start = netinfo.December2016
	}
	cls, err := classify.New(cfg.Threshold)
	if err != nil {
		return nil, fmt.Errorf("evolve: %w", err)
	}

	cur := cloneWorld(w)
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xe701_7e01))
	tl := &Timeline{}
	month := cfg.Start
	for m := 0; m < cfg.Months; m++ {
		if m > 0 {
			mutate(cur, rng, cfg)
		}
		bcfg := cfg.Beacon
		bcfg.Seed = cfg.Beacon.Seed + uint64(m)*7919
		bcfg.Month = month
		agg, err := beacon.Generate(cur, bcfg)
		if err != nil {
			return nil, fmt.Errorf("evolve: month %s: %w", month, err)
		}
		dcfg := cfg.Demand
		dcfg.Seed = cfg.Demand.Seed + uint64(m)*104729
		ds, err := demand.Generate(cur, dcfg)
		if err != nil {
			return nil, fmt.Errorf("evolve: month %s: %w", month, err)
		}
		detected := cls.Classify(agg)
		tl.Snapshots = append(tl.Snapshots, monthSnapshot(month, detected, ds))
		month = month.Next()
	}
	return tl, nil
}

// monthSnapshot assembles one month's Snapshot from its classification and
// demand, ranking detected blocks by demand to find the heavy hitters.
func monthSnapshot(month netinfo.Month, detected netaddr.Set, ds *demand.Dataset) Snapshot {
	snap := Snapshot{Month: month, Detected: detected}
	type bd struct {
		b  netaddr.Block
		du float64
	}
	var tops []bd
	for b := range detected {
		tops = append(tops, bd{b, ds.DU(b)})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].du != tops[j].du {
			return tops[i].du > tops[j].du
		}
		return tops[i].b.Less(tops[j].b)
	})
	// Sum in sorted order: float accumulation over map order would
	// differ between identical runs.
	for _, tb := range tops {
		snap.CellDU += tb.du
	}
	for i := 0; i < 100 && i < len(tops); i++ {
		snap.TopBlocks = append(snap.TopBlocks, tops[i].b)
	}
	return snap
}

// cloneWorld shallow-copies a world with fresh BlockInfo values so monthly
// mutation never touches the caller's world. Registry, countries and
// resolvers are immutable here and shared. The clone's resolver affinity
// (World.AppendAffinity) follows its mutated blocks, but evolve reads none
// of it.
func cloneWorld(w *world.World) *world.World {
	clone := *w
	clone.Blocks = make([]*world.BlockInfo, len(w.Blocks))
	clone.BlockIndex = make(map[netaddr.Block]*world.BlockInfo, len(w.Blocks))
	for i, b := range w.Blocks {
		nb := *b
		clone.Blocks[i] = &nb
		clone.BlockIndex[nb.Block] = &nb
	}
	return &clone
}

// mutate applies one month of drift: demand random-walks on every active
// block, and a ChurnRate fraction of active cellular blocks hand their role
// to freshly allocated addresses in the same AS.
func mutate(w *world.World, rng *rand.Rand, cfg Config) {
	next := nextV4Key(w)
	var added []*world.BlockInfo
	for _, b := range w.Blocks {
		if b.Demand > 0 && cfg.DemandDrift > 0 {
			b.Demand *= traffic.LogNormal(rng, 0, cfg.DemandDrift)
		}
		if !b.Cellular || !b.WebActive || b.Block.IsV6() {
			continue
		}
		if rng.Float64() >= cfg.ChurnRate {
			continue
		}
		// Reassign: the successor inherits the block's role; the old
		// address goes dark.
		nb := *b
		nb.Block = netaddr.MakeBlock(netaddr.IPv4, next)
		next++
		added = append(added, &nb)
		b.Demand = 0
		b.WebActive = false
		b.Cellular = false
	}
	for _, nb := range added {
		w.Blocks = append(w.Blocks, nb)
		w.BlockIndex[nb.Block] = nb
	}
}

// nextV4Key returns the first /24 key above every existing allocation, so
// freshly allocated blocks never collide with live ones.
func nextV4Key(w *world.World) uint64 {
	var max24 uint64
	for _, b := range w.Blocks {
		if !b.Block.IsV6() && b.Block.Key() > max24 {
			max24 = b.Block.Key()
		}
	}
	return max24 + 1
}
