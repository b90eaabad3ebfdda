// Package live is the aggregation plane between beacon collectors and the
// map server. One fold-and-publish core, the Aggregator, folds beacon
// records into a sliding window of per-day BEACON buckets (the paper's
// seven-day smoothing) and on every refresh tick runs the reproduction's
// classify → AS-filter → cellmap.Build chain over the windowed aggregate,
// publishing the result as a new generation in a snapshot store. A serving
// process (cellmapd) polls the store and hot-swaps generations with zero
// lookup downtime.
//
// Records reach the core through one of two inputs: the local spool
// reader, which on every tick folds a beacond spool's sealed shards past
// their acked byte offsets, or the federation receiver, which folds
// segments shipped by remote collectors. Both read one acked offset per
// shard and fold whole payloads through FoldPayload. Either way the core
// checkpoints its state — window buckets plus the input positions that
// produced them — inside the generation it publishes, so the
// invariant "CURRENT's checkpoint describes exactly the records baked into
// CURRENT's map" holds across crashes, and a restarted aggregator resumes
// from the last published generation instead of re-reading its inputs.
package live

import (
	"fmt"
	"time"

	"cellspot/internal/cellmap"
	"cellspot/internal/classify"
	"cellspot/internal/history"
	"cellspot/internal/logio"
	"cellspot/internal/mapbuild"
	"cellspot/internal/obs"
	"cellspot/internal/snapshot"
)

const (
	// StateFile is the aggregator checkpoint inside a generation: the
	// window state plus the acked input offsets that produced it.
	StateFile = "federation.json"

	stateFormat = "cellspot-federation-checkpoint/1"

	// SpoolSource is the window source the local spool's records fold
	// under.
	SpoolSource = "local-spool"

	// DefaultInterval is the refresh cadence of Run.
	DefaultInterval = 30 * time.Second
	// DefaultSpoolPrefix is logio.SpoolPrefix under the name perfbench
	// uses.
	DefaultSpoolPrefix = logio.SpoolPrefix
	// DefaultKeep is how many generations retention pruning preserves.
	DefaultKeep = 5
)

// MapInputs bundles the side data the map-build chain needs beyond the
// beacon aggregate itself. It aliases mapbuild.Inputs — the chain lives in
// internal/mapbuild so offline scenario builds share it without importing
// the live machinery.
type MapInputs = mapbuild.Inputs

// Config parameterizes an Aggregator.
type Config struct {
	// SpoolDir, when set, is a beacond spool directory whose sealed
	// shards every Tick folds into the window under SpoolSource. Leave it empty when records
	// arrive through Fold instead (the federation receiver).
	SpoolDir string
	// WindowDays is the sliding window span (DefaultWindowDays when <= 0).
	WindowDays int
	// Interval is the Run refresh cadence (DefaultInterval when <= 0).
	Interval time.Duration
	// Threshold is the classifier operating point
	// (classify.DefaultThreshold when 0).
	Threshold float64
	// Inputs is the side data for the map-build chain; Inputs.ASOf is
	// required.
	Inputs MapInputs
	// Store receives published generations (required).
	Store *snapshot.Store
	// Keep bounds retained generations (DefaultKeep when <= 0).
	Keep int
	// Metrics, when non-nil, registers the aggregation-plane metric
	// families:
	//
	//	live_refresh_total          refresh ticks attempted
	//	live_refresh_errors_total   ticks that failed
	//	live_publish_total          generations published
	//	live_refresh_seconds        drain→build→publish latency histogram
	//	live_refresh_stage_seconds{stage}  latency of one refresh stage:
	//	                            merge (window→aggregate), checkpoint
	//	                            (window state encode), build (classify→
	//	                            AS filter→map), publish (generation write)
	//	live_stale_records_total    records dropped as older than the window
	//	live_window_stragglers_total  records dropped on arrival as already
	//	                            older than the window (late/out-of-order
	//	                            days; see MultiWindow's retention contract)
	//	live_window_records         records in the current window
	//	live_window_blocks          distinct blocks in the last published window
	//	live_window_sources         sources with records in the current window
	//	live_pending_folds          folds awaiting the next publish
	//
	// and, with SpoolDir set, the spool reader's:
	//
	//	live_tailed_records_total   spool records consumed
	//	live_spool_bad_lines_total  malformed or invalid spool lines skipped
	//	live_spool_oversize_lines_total  lines skipped as over the line cap
	//
	// A sealed shard found smaller than its acked offset fails the tick
	// and counts in live_refresh_errors_total.
	Metrics *obs.Registry
	// Logf, when non-nil, receives operational log lines from Run.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Store == nil {
		return fmt.Errorf("live: Config.Store is required")
	}
	if c.Inputs.ASOf == nil {
		return fmt.Errorf("live: Config.Inputs.ASOf is required")
	}
	if c.WindowDays <= 0 {
		c.WindowDays = DefaultWindowDays
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Threshold == 0 {
		c.Threshold = classify.DefaultThreshold
	}
	if c.Keep <= 0 {
		c.Keep = DefaultKeep
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// ReadGenerationMap loads the published map of a generation.
func ReadGenerationMap(gen snapshot.Generation) (*cellmap.Map, error) {
	return cellmap.ReadFile(gen.Path(history.MapFile))
}
