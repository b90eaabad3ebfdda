package aschar

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

// joinCase is one input of the join oracles: a beacon aggregate with the
// world and DEMAND it is joined against.
type joinCase struct {
	name string
	w    *world.World
	agg  *beacon.Aggregate
	ds   *demand.Dataset
}

// joinCases builds, for seeds 1–3 at Scale 0.005 and Parallelism 1 and 8,
// the generated aggregate (rows in canonical order), an arrival-order copy
// of it, and the aggregate of a world that lists every 97th block twice.
// DEMAND leaves out every 11th block, so beacon-only blocks take part.
func joinCases(t *testing.T) []joinCase {
	t.Helper()
	var cases []joinCase
	for seed := uint64(1); seed <= 3; seed++ {
		for _, p := range []int{1, 8} {
			wcfg := world.DefaultConfig()
			wcfg.Seed, wcfg.Scale, wcfg.Parallelism = seed, 0.005, p
			w, err := world.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			repeated := *w
			repeated.Blocks = slices.Clone(w.Blocks)
			for i := 0; i < len(w.Blocks); i += 97 {
				repeated.Blocks = append(repeated.Blocks, w.Blocks[i])
			}
			bcfg := beacon.DefaultGenConfig()
			bcfg.Seed, bcfg.Parallelism = seed, p
			agg, err := beacon.Generate(w, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			twice, err := beacon.Generate(&repeated, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			dcfg := demand.DefaultGenConfig()
			dcfg.Seed, dcfg.Parallelism = seed, p
			full, err := demand.Generate(w, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			raw := make(map[netaddr.Block]float64, full.Blocks())
			full.Each(func(b netaddr.Block, du float64) {
				if b.Key()%11 != 0 {
					raw[b] = du
				}
			})
			ds, err := demand.NewDataset(raw)
			if err != nil {
				t.Fatal(err)
			}
			arrival := beacon.NewAggregate()
			for i := agg.Blocks() - 1; i >= 0; i-- {
				b, c := agg.At(i)
				arrival.AddCounts(b, c)
			}
			name := fmt.Sprintf("seed %d Parallelism %d", seed, p)
			cases = append(cases,
				joinCase{name + " canonical", w, agg, ds},
				joinCase{name + " arrival order", w, arrival, ds},
				joinCase{name + " repeated blocks", w, twice, ds},
			)
		}
	}
	return cases
}

// mapWalkStats is Rollup.Stats as it ran over a map of per-block tallies:
// the beacon blocks visited in map order, each probing DEMAND's row index.
func mapWalkStats(r *Rollup, detected netaddr.Set, agg *beacon.Aggregate) map[uint32]*Stats {
	vals := slices.Clone(r.base)
	var more map[uint32]*Stats
	var cellRows []int
	for b := range detected {
		if row, ok := r.demand.Row(b); ok {
			if i := r.asIdx[row]; i >= 0 {
				vals[i].addCellBlock(b)
				cellRows = append(cellRows, row)
			}
		}
	}
	slices.Sort(cellRows)
	for _, row := range cellRows {
		_, du := r.demand.At(row)
		vals[r.asIdx[row]].CellDU += du
	}
	perBlock := make(map[netaddr.Block]beacon.Counts, agg.Blocks())
	for i := range agg.Blocks() {
		b, c := agg.At(i)
		perBlock[b] = c
	}
	for b, c := range perBlock {
		var s *Stats
		if row, ok := r.demand.Row(b); ok {
			i := r.asIdx[row]
			if i < 0 {
				continue
			}
			s = &vals[i]
		} else {
			a, ok := r.asOf(b)
			if !ok {
				continue
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
			if detected.Has(b) {
				s.addCellBlock(b)
			}
		}
		s.Hits += c.Hits
		s.APIHits += c.API
		s.CellHits += c.Cell
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

// sameStats reports whether two stats maps hold the same ASes with the
// same counts and bit-identical floats.
func sameStats(got, want map[uint32]*Stats) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ASes, want %d", len(got), len(want))
	}
	for a, w := range want {
		g := got[a]
		if g == nil {
			return fmt.Errorf("AS %d missing", a)
		}
		gi, wi := *g, *w
		gi.TotalDU, gi.CellDU, wi.TotalDU, wi.CellDU = 0, 0, 0, 0
		if gi != wi || math.Float64bits(g.TotalDU) != math.Float64bits(w.TotalDU) ||
			math.Float64bits(g.CellDU) != math.Float64bits(w.CellDU) {
			return fmt.Errorf("AS %d = %+v, want %+v", a, *g, *w)
		}
	}
	return nil
}

// TestStatsMatchesMapWalkOracle compares the merge-joined Stats bitwise
// with the map walk on every join case. Some blocks map to no AS and the
// detected set holds blocks BEACON never saw, so every branch of the
// join runs.
func TestStatsMatchesMapWalkOracle(t *testing.T) {
	cls, err := classify.New(classify.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range joinCases(t) {
		asOf := func(b netaddr.Block) (uint32, bool) {
			bi := c.w.BlockIndex[b]
			if bi == nil || b.Key()%17 == 0 {
				return 0, false
			}
			return bi.ASN, true
		}
		detected := cls.Classify(c.agg)
		for i := 0; i < c.ds.Blocks(); i += 5 {
			detected.Add(c.ds.Key(i))
		}
		r := NewRollup(c.ds, asOf, asOf)
		got, want := r.Stats(detected, c.agg), mapWalkStats(r, detected, c.agg)
		if err := sameStats(got, want); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		var beaconOnly int
		r.ResolveBeacon(c.agg, func(b netaddr.Block, _ uint32, _ int) {
			if _, ok := c.ds.Row(b); !ok {
				beaconOnly++
			}
		})
		if beaconOnly == 0 {
			t.Errorf("%s: no mapped beacon-only block; the join's probe side is untested", c.name)
		}
	}
}
