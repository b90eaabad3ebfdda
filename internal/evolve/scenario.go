package evolve

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cellspot/internal/cellmap"
	"cellspot/internal/history"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/snapshot"
	"cellspot/internal/world"
)

// A Scenario is a named evolution script: a monthly mutation layered on
// top of the base churn/drift model, shaping the sequence of published
// maps into a recognizable story (a 5G rollout, an operator merger, a
// CGNAT pool expansion). Scenarios are what make the history service's
// time-travel queries demonstrable: RunScenario publishes each month as
// one snapshot generation, and /v1/history replays the script's change
// points.
type Scenario struct {
	Name        string
	Description string

	// Configure adjusts the base Config before the run (starting month,
	// churn rate). It must not touch Seed, Months or Threshold — those
	// belong to the caller.
	Configure func(*Config)

	// Step applies the scenario's own mutation for month m (1-based; the
	// first month is the unmodified world). It runs after the base
	// churn/drift mutation and may only change the world's blocks and add
	// new ones with AddBlock — the world is a private clone, but its
	// Operators still alias the caller's.
	Step func(w *world.World, rng *rand.Rand, m int, cfg *Config)
}

// scenarios is the registry, in presentation order.
var scenarios = []*Scenario{
	{
		Name:        "baseline",
		Description: "steady-state churn and demand drift, no scripted event",
	},
	{
		Name:        "5g-rollout",
		Description: "every operator deploys NR and adoption accelerates ~4 months per month",
		Configure: func(cfg *Config) {
			// Start where the baseline adoption curve has NR to roll out.
			cfg.Start = netinfo.Month{Year: 2019, Mon: 6}
			// Renumbering churn would drown the radio story.
			cfg.ChurnRate = 0.01
		},
		Step: stepFiveGRollout,
	},
	{
		Name:        "operator-merger",
		Description: "halfway through, the #2 cellular operator's space is renumbered into #1's AS",
		Step:        stepOperatorMerger,
	},
	{
		Name:        "cgnat-expansion",
		Description: "the largest cellular operator grows its CGNAT pool by ~5% of its /24s every month",
		Step:        stepCGNATExpansion,
	},
}

// Scenarios lists every registered scenario in presentation order.
func Scenarios() []*Scenario {
	return append([]*Scenario(nil), scenarios...)
}

// ScenarioByName resolves a scenario; ok is false for unknown names.
func ScenarioByName(name string) (*Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return nil, false
}

// stepFiveGRollout pulls every cellular block's operator profile forward
// on the adoption curve and switches NR on everywhere: month over month
// the published maps' RAT columns tilt from 4G toward 5G. A run's month
// count is unbounded, so the lag saturates at its type's minimum instead
// of wrapping round to a late adopter.
func stepFiveGRollout(w *world.World, _ *rand.Rand, _ int, _ *Config) {
	for _, b := range w.Blocks {
		if !b.Cellular {
			continue
		}
		b.RAT.FiveG = true
		b.RAT.LagMonths = int16(max(int(b.RAT.LagMonths)-4, math.MinInt16))
	}
}

// stepOperatorMerger renumbers the second-largest cellular operator's
// blocks into the largest's AS at the run's midpoint: the acquired
// prefixes keep their labels and demand but change owner, the exact event
// a /v1/history timeline surfaces as an ASN change-point.
func stepOperatorMerger(w *world.World, _ *rand.Rand, m int, cfg *Config) {
	if m != cfg.Months/2 {
		return
	}
	acquirer, acquired := topTwoCellularASes(w)
	if acquired == 0 {
		return
	}
	for _, b := range w.Blocks {
		if b.ASN == acquired {
			b.ASN = acquirer
		}
	}
}

// stepCGNATExpansion allocates fresh web-active cellular /24s for the
// largest cellular operator each month — CGNAT pool growth. New prefixes
// appear in the published map, so timelines of addresses inside them show
// a not-covered → cellular transition at the expansion month.
func stepCGNATExpansion(w *world.World, rng *rand.Rand, _ int, _ *Config) {
	asn, _ := topTwoCellularASes(w)
	if asn == 0 {
		return
	}
	// Template: the operator's highest-demand active cellular /24, so the
	// new pool inherits realistic label/radio behavior.
	var tmpl *world.BlockInfo
	grow := 0
	for _, b := range w.Blocks {
		if b.ASN != asn || !b.Cellular || b.Block.IsV6() {
			continue
		}
		grow++
		if b.WebActive && (tmpl == nil || b.Demand > tmpl.Demand) {
			tmpl = b
		}
	}
	if tmpl == nil {
		return
	}
	n := grow / 20 // ~5% monthly growth
	if n < 1 {
		n = 1
	}
	next := nextV4Key(w)
	for i := 0; i < n; i++ {
		nb := *tmpl
		nb.Block = netaddr.MakeBlock(netaddr.IPv4, next)
		next++
		nb.Demand = tmpl.Demand * (0.5 + rng.Float64())
		w.AddBlock(&nb)
	}
}

// topTwoCellularASes ranks cellular ASes by active cellular /24 count
// (ties to the lower AS number) and returns the top two; zero values mean
// fewer than one/two cellular ASes exist.
func topTwoCellularASes(w *world.World) (first, second uint32) {
	counts := make(map[uint32]int)
	for _, b := range w.Blocks {
		if b.Cellular && b.WebActive && !b.Block.IsV6() {
			counts[b.ASN]++
		}
	}
	for asn, n := range counts {
		switch {
		case first == 0 || n > counts[first] || (n == counts[first] && asn < first):
			first, second = asn, first
		case second == 0 || n > counts[second] || (n == counts[second] && asn < second):
			second = asn
		}
	}
	return first, second
}

// ScenarioRun is the result of one scripted evolution: the monthly
// publishable maps plus the detected-set Timeline the churn statistics
// derive from. Maps[i] corresponds to Months[i] and Timeline.Snapshots[i].
type ScenarioRun struct {
	Scenario string
	Months   []netinfo.Month
	Maps     []*cellmap.Map
	Timeline *Timeline
}

// RunScenario simulates the scripted evolution and builds each month's
// publishable map through mapbuild, the classify → AS-filter →
// cellmap.Build chain the live aggregator uses, so a scenario's
// generations are indistinguishable from organically published ones. The
// input world is cloned, never mutated.
func RunScenario(w *world.World, sc *Scenario, cfg Config) (*ScenarioRun, error) {
	if sc == nil {
		return nil, fmt.Errorf("evolve: nil scenario")
	}
	if sc.Configure != nil {
		sc.Configure(&cfg)
	}
	run, err := runMonths(w, cfg, 0xe701_5ce0, sc.Step, true)
	if err != nil {
		return nil, err
	}
	run.Scenario = sc.Name
	return run, nil
}

// Publish writes each monthly map into the store as one generation
// through history.WriteGeneration, the layout the live aggregator
// publishes, and returns the allocated sequence numbers, ascending. With
// keep > 0 the store is pruned to that many generations afterwards.
func (r *ScenarioRun) Publish(store *snapshot.Store, keep int) ([]uint64, error) {
	seqs := make([]uint64, 0, len(r.Maps))
	for _, m := range r.Maps {
		gen, err := store.Publish(func(dir string) error {
			return history.WriteGeneration(dir, m, "", "")
		})
		if err != nil {
			return seqs, fmt.Errorf("evolve: publish %s: %w", m.Period, err)
		}
		seqs = append(seqs, gen.Seq)
	}
	if keep > 0 {
		if _, err := store.Prune(keep); err != nil {
			return seqs, fmt.Errorf("evolve: prune: %w", err)
		}
	}
	return seqs, nil
}
