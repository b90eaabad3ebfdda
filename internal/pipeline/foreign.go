package pipeline

import (
	"fmt"
	"time"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/ingest"
	"cellspot/internal/netaddr"
)

// ForeignResult is what a foreign conn-log run produces. Unlike Result
// there is no synthetic world behind it, so the AS/macro/DNS stages — which
// need ground-truth BGP and whois mappings — do not apply; the output is
// the measured aggregates plus the classified cellular subnet set, exactly
// what an operator feeds their own BGP/whois joins.
type ForeignResult struct {
	Beacon   *beacon.Aggregate
	Demand   *demand.Dataset
	Detected netaddr.Set
	Stats    ingest.Stats
}

// RunForeign imports a Zeek-style conn-log tree and runs the paper's
// subnet-classification stage over the measured traffic. fn, when non-nil,
// receives every admitted record in deterministic file order — the hook
// `cellspot ingest -out` uses to spool records for the live path in the
// same single pass. Threshold 0 means classify.DefaultThreshold.
func RunForeign(cfg ingest.Config, threshold float64, fn func(beacon.Record)) (*ForeignResult, error) {
	if threshold == 0 {
		threshold = classify.DefaultThreshold
	}
	cls, err := classify.New(threshold)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}

	pcfg := Config{Metrics: cfg.Metrics}
	start := time.Now()
	imp, err := ingest.Import(cfg, fn)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	pcfg.observeStage("ingest", start, imp.Stats.Records)

	ds, err := imp.Demand()
	if err != nil {
		return nil, fmt.Errorf("pipeline: foreign demand: %w", err)
	}

	start = time.Now()
	detected := cls.Classify(imp.Beacon)
	pcfg.observeStage("classify", start, imp.Beacon.Blocks())

	return &ForeignResult{
		Beacon:   imp.Beacon,
		Demand:   ds,
		Detected: detected,
		Stats:    imp.Stats,
	}, nil
}
