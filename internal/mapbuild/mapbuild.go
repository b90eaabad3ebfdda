// Package mapbuild runs the classify → AS-filter → cellmap.Build chain:
// the one code path that turns a beacon aggregate into the publishable
// cellular map, and the only caller of cellmap.Build. The live aggregator
// (fed by the local spool or by federated collectors), the evolve
// scenario runner, `cellspot export` and experiment X2 (both through
// pipeline.Result.MapInputs) all build through it, so a published map
// holds only the detected blocks of ASes that pass the paper's AS filter,
// and maps from identical aggregates are bit-identical regardless of
// which subsystem published them.
package mapbuild

import (
	"fmt"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/netaddr"
)

// Inputs bundles the side data the map-build chain needs beyond the
// beacon aggregate itself.
type Inputs struct {
	// Demand weights AS-filter rule 1 and the published DU annotations;
	// nil skips both (rule 1 then passes every AS).
	Demand *demand.Dataset
	// Rules is the paper's AS filter (Table 5). The zero value disables
	// all three rules.
	Rules aschar.Rules
	// ASOf maps a block to its originating AS, as a BGP table would.
	// Required: unmappable blocks cannot be published.
	ASOf func(netaddr.Block) (uint32, bool)
	// CountryOf annotates entries with a country; optional.
	CountryOf func(uint32) (string, bool)
}

// Builder is the chain prepared for one classifier threshold and one set
// of side inputs. The demand-side AS rollup is computed once in New, so
// each Build pays for the aggregate's blocks and its detected set, not for
// every block with demand. Safe for concurrent use when ASOf and
// CountryOf are.
type Builder struct {
	cls    classify.Classifier
	rollup *aschar.Rollup
	in     Inputs
}

// New validates the inputs and prepares a Builder.
func New(threshold float64, in Inputs) (*Builder, error) {
	if in.ASOf == nil {
		return nil, fmt.Errorf("mapbuild: Inputs.ASOf is required")
	}
	cls, err := classify.New(threshold)
	if err != nil {
		return nil, fmt.Errorf("mapbuild: %w", err)
	}
	return &Builder{cls: cls, rollup: aschar.NewRollup(in.Demand, in.ASOf, in.ASOf), in: in}, nil
}

// Build is the one-shot form of New(threshold, in).Build(agg, period).
func Build(agg *beacon.Aggregate, threshold float64, period string, in Inputs) (*cellmap.Map, error) {
	b, err := New(threshold, in)
	if err != nil {
		return nil, err
	}
	return b.Build(agg, period)
}

// Build classifies the aggregate, drops detected blocks whose AS fails
// the paper's exclusion rules, and assembles the publishable map.
func (bd *Builder) Build(agg *beacon.Aggregate, period string) (*cellmap.Map, error) {
	detected := bd.cls.Classify(agg)
	fr := aschar.Filter(bd.rollup.Stats(detected, agg), bd.in.Rules)
	allowed := make(map[uint32]bool, len(fr.AfterRule3))
	for _, a := range fr.AfterRule3 {
		allowed[a] = true
	}
	kept := make(netaddr.Set)
	for b := range detected {
		if a, ok := bd.in.ASOf(b); ok && allowed[a] {
			kept.Add(b)
		}
	}
	return cellmap.Build(bd.cls.Threshold(), period, cellmap.Inputs{
		Detected:  kept,
		Beacon:    agg,
		Demand:    bd.in.Demand,
		ASOf:      bd.in.ASOf,
		CountryOf: bd.in.CountryOf,
	})
}
