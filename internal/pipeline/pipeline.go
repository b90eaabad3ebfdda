// Package pipeline wires the full reproduction together: generate a
// synthetic world, derive the BEACON and DEMAND datasets from it, classify
// subnets, identify and characterize cellular ASes, and run the DNS and
// macroscopic analyses. Each experiment (table/figure) consumes a Result.
package pipeline

import (
	"fmt"
	"net/netip"
	"time"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/dnsmap"
	"cellspot/internal/macro"
	"cellspot/internal/mapbuild"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
	"cellspot/internal/par"
	"cellspot/internal/rdns"
	"cellspot/internal/world"
)

// Config parameterizes one full pipeline run.
type Config struct {
	World     world.Config
	Beacon    beacon.GenConfig
	Demand    demand.GenConfig
	Threshold float64 // classifier threshold (paper: 0.5)
	MinCellDU float64 // AS filter rule 1 (paper: 0.1 DU)
	MinHits   int     // AS filter rule 2 (paper: 300 responses)

	// Parallelism is the worker count for the sharded hot stages (world
	// generation, BEACON synthesis, DEMAND jitter), for running BEACON
	// beside DEMAND and for Analyze's independent branches:
	// 0 = GOMAXPROCS, 1 = the serial oracle path. Classification is
	// serial at every setting: it is ~2 ms of a ~360-ms run. Run and
	// RunOnWorld copy it into the stage configs, overriding their own
	// Parallelism fields. Results are bit-identical at every setting —
	// each shard draws from its own PCG(seed, streamConst^shardIndex)
	// stream, shard outputs merge in shard order, and each concurrent
	// branch writes its own fields.
	Parallelism int

	// Metrics, when non-nil, receives per-stage wall-time histograms and
	// items-processed counters (pipeline_stage_* families) plus the
	// internal/par worker-utilization counters. Recording is
	// observation-only, so results stay bit-identical with metrics on.
	// Unless Parallelism is 1, the beacon and demand stages run at the
	// same time and share the cores, so their histograms overlap: they
	// do not add up to the wall time of Run, and each reads longer than
	// it would alone.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper-parameter run at the default world scale.
func DefaultConfig() Config {
	return Config{
		World:     world.DefaultConfig(),
		Beacon:    beacon.DefaultGenConfig(),
		Demand:    demand.DefaultGenConfig(),
		Threshold: classify.DefaultThreshold,
		MinCellDU: 0.1,
		MinHits:   300,
	}
}

// Result is everything one pipeline run produces.
type Result struct {
	Config Config
	World  *world.World

	Beacon   *beacon.Aggregate
	Demand   *demand.Dataset
	Detected netaddr.Set

	Stats    map[uint32]*aschar.Stats
	Filter   aschar.FilterResult
	Networks []aschar.Network // final cellular ASes, characterized

	Macro *macro.Analysis

	ResolverUsage map[netip.Addr]*dnsmap.Usage
	PublicDNS     map[uint32]*dnsmap.PublicUsage

	// RDNS holds the reverse-DNS corroboration of detected cellular space
	// per AS (the paper's §5 proxy confirmation, mechanized).
	RDNS map[uint32]*rdns.Corroboration
}

// ASOf returns the BGP-style block→AS mapping for the run's world.
func (r *Result) ASOf(b netaddr.Block) (uint32, bool) { return r.World.ASOf(b) }

// CountryOf returns the whois-style AS→country mapping.
func (r *Result) CountryOf(asNum uint32) (string, bool) { return r.World.CountryOf(asNum) }

// rules returns the paper's AS filter at the run's thresholds.
func (r *Result) rules() aschar.Rules {
	return aschar.Rules{
		MinCellDU: r.Config.MinCellDU,
		MinHits:   r.Config.MinHits,
		Snapshot:  r.World.Snapshot,
	}
}

// MapInputs returns the side inputs that build the run's publishable map
// through mapbuild: its DEMAND, the AS filter Analyze applies, and the
// world's block→AS and AS→country mappings.
func (r *Result) MapInputs() mapbuild.Inputs {
	return mapbuild.Inputs{
		Demand:    r.Demand,
		Rules:     r.rules(),
		ASOf:      r.World.ASOf,
		CountryOf: r.World.CountryOf,
	}
}

// Run executes the full pipeline on a freshly generated global world.
func Run(cfg Config) (*Result, error) {
	cfg.wirePar()
	cfg.World.Parallelism = cfg.Parallelism
	start := time.Now()
	w, err := world.Generate(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("pipeline: world: %w", err)
	}
	cfg.observeStage("world", start, len(w.Blocks))
	return RunOnWorld(w, cfg)
}

// RunCaseStudy executes the pipeline on the paper-scale three-carrier
// world used for Table 3, Fig 3, Fig 6, and Fig 8.
func RunCaseStudy(cfg Config) (*Result, error) {
	cfg.wirePar()
	start := time.Now()
	w, err := world.GenerateCaseStudy(world.CaseStudyConfig{Seed: cfg.World.Seed})
	if err != nil {
		return nil, fmt.Errorf("pipeline: case study: %w", err)
	}
	cfg.observeStage("world", start, len(w.Blocks))
	return RunOnWorld(w, cfg)
}

// RunOnWorld executes the measurement pipeline against an existing world.
func RunOnWorld(w *world.World, cfg Config) (*Result, error) {
	cfg.wirePar()
	cfg.Beacon.Parallelism = cfg.Parallelism
	cfg.Demand.Parallelism = cfg.Parallelism
	r := &Result{Config: cfg, World: w}

	// BEACON and DEMAND only read the world and each writes its own
	// Result field, so they run as two branches; Parallelism 1 runs them
	// in order. The BEACON error is reported first.
	var errs [2]error
	par.Do(2, cfg.Parallelism, func(i int) {
		start := time.Now()
		switch i {
		case 0:
			r.Beacon, errs[0] = beacon.Generate(w, cfg.Beacon)
			if errs[0] == nil {
				cfg.observeStage("beacon", start, r.Beacon.Blocks())
			}
		case 1:
			r.Demand, errs[1] = demand.Generate(w, cfg.Demand)
			if errs[1] == nil {
				cfg.observeStage("demand", start, cfg.Demand.Days*r.Demand.Blocks())
			}
		}
	})
	if errs[0] != nil {
		return nil, fmt.Errorf("pipeline: beacon: %w", errs[0])
	}
	if errs[1] != nil {
		return nil, fmt.Errorf("pipeline: demand: %w", errs[1])
	}

	if err := r.Classify(cfg.Threshold); err != nil {
		return nil, err
	}
	start := time.Now()
	r.Analyze()
	cfg.observeStage("analyze", start, len(r.Stats))
	return r, nil
}

// Classify (re)runs subnet classification and everything downstream of it
// at the given threshold. Exposed separately for threshold ablations.
func (r *Result) Classify(threshold float64) error {
	cls, err := classify.New(threshold)
	if err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	start := time.Now()
	r.Detected = cls.Classify(r.Beacon)
	r.Config.observeStage("classify", start, r.Beacon.Blocks())
	return nil
}

// Analyze runs the AS, macro and DNS stages from the current detection set.
// Its four branches are independent: each reads only inputs complete
// before Analyze starts, writes only its own Result fields and runs
// serially inside, so they run concurrently under Config.Parallelism
// (1 runs them in order) and every float keeps its summation order. A
// branch that walks DEMAND's rows against the world makes its own
// world.Cursor; no cursor is shared between branches.
func (r *Result) Analyze() {
	// par.Do hands out branches in index order, so they are listed
	// longest first. At Scale 0.02 the resolver usage walk takes ~50-70
	// ms, the AS branch ~30-45 ms and public DNS and rDNS ~10 ms each;
	// with two workers, the short ones queue behind the AS branch.
	par.Do(4, r.Config.Parallelism, func(i int) {
		switch i {
		case 0:
			r.ResolverUsage = dnsmap.ResolverUsage(r.World.NewCursor().AppendAffinity, r.Demand, r.Detected)
		case 1:
			r.analyzeASes()
		case 2:
			known := dnsmap.KnownPublicResolvers()
			r.PublicDNS = dnsmap.PublicDNSByAS(r.World.AppendAffinity, r.Demand, r.Detected, r.ASOf,
				func(a netip.Addr) string { return known[a] })
		case 3:
			r.RDNS = rdns.Corroborate(r.Detected, rdns.Names(r.World), r.ASOf)
		}
	})
}

// analyzeASes is Analyze's AS branch: per-AS stats, the AS filter, the
// characterized networks and the macroscopic rollup over them. Stats and
// the macroscopic rollup read one demand rollup, so DEMAND's blocks are
// resolved to their ASes once, by a world cursor that walks the rows in
// canonical order; the rollup keeps the stateless ASOf for beacon-only
// blocks.
func (r *Result) analyzeASes() {
	ru := aschar.NewRollup(r.Demand, r.ASOf, r.World.NewCursor().ASOf)
	r.Stats = ru.Stats(r.Detected, r.Beacon)
	r.Filter = aschar.Filter(r.Stats, r.rules())
	r.Networks = aschar.Characterize(r.Filter.AfterRule3, r.Stats)

	cellASes := make(map[uint32]bool, len(r.Filter.AfterRule3))
	for _, a := range r.Filter.AfterRule3 {
		cellASes[a] = true
	}
	r.Macro = macro.Build(macro.Inputs{
		Rollup:       ru,
		Beacon:       r.Beacon,
		Detected:     r.Detected,
		CountryOf:    r.CountryOf,
		Countries:    r.World.Countries,
		CellularASes: cellASes,
	})
}

// MixedASSet returns the identified mixed cellular ASes as a set.
func (r *Result) MixedASSet() map[uint32]bool {
	out := make(map[uint32]bool)
	for _, n := range r.Networks {
		if !n.Dedicated {
			out[n.ASN] = true
		}
	}
	return out
}
