package pipeline

import (
	"cellspot/internal/aschar"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
)

// Ablations quantify the design choices the paper argues for. Each takes a
// completed Result and re-runs one stage with the choice inverted.

// ASNOnlyResult compares prefix-level identification with the naive
// AS-granularity alternative the paper argues against: label every block
// of an identified cellular AS as cellular.
type ASNOnlyResult struct {
	PrefixLevel classify.Confusion // demand-weighted, the paper's method
	ASNLevel    classify.Confusion // demand-weighted, AS-granularity
}

// AblationASNOnly evaluates both granularities against world ground truth,
// demand-weighted over active blocks. Mixed networks make AS-granularity
// labeling wrong for most of their (fixed-line) demand.
func AblationASNOnly(r *Result) ASNOnlyResult {
	cellAS := r.Filter.Cellular()
	var out ASNOnlyResult
	for _, bi := range r.World.Blocks {
		if bi.Demand <= 0 {
			continue
		}
		du := r.Demand.DU(bi.Block)
		out.PrefixLevel.Add(bi.Cellular, r.Detected.Has(bi.Block), du)
		out.ASNLevel.Add(bi.Cellular, cellAS[bi.ASN], du)
	}
	return out
}

// ThresholdResult is one operating point of the threshold ablation.
type ThresholdResult struct {
	Threshold float64
	Detected  int
	ByDemand  classify.Confusion // vs world ground truth, active blocks
}

// AblationThreshold replays subnet classification at the given thresholds
// and scores each against ground truth.
func AblationThreshold(r *Result, thresholds []float64) ([]ThresholdResult, error) {
	out := make([]ThresholdResult, 0, len(thresholds))
	for _, th := range thresholds {
		cls, err := classify.New(th)
		if err != nil {
			return nil, err
		}
		det := cls.Classify(r.Beacon)
		var m classify.Confusion
		for _, bi := range r.World.Blocks {
			if bi.Demand <= 0 {
				continue
			}
			m.Add(bi.Cellular, det.Has(bi.Block), r.Demand.DU(bi.Block))
		}
		out = append(out, ThresholdResult{Threshold: th, Detected: det.Len(), ByDemand: m})
	}
	return out, nil
}

// NoFilterResult quantifies skipping the AS filters (Table 5's rules).
type NoFilterResult struct {
	TaggedASes   int // straw-man cellular AS count
	FilteredASes int // after the three rules
	// FalseASes counts straw-man ASes that are not cellular access
	// networks in ground truth; SurvivingFalse counts those the filters
	// failed to remove.
	FalseASes      int
	SurvivingFalse int
}

// AblationNoASFilters measures how many non-cellular ASes the straw-man
// tagging admits and how many the filters remove, using ground-truth roles.
func AblationNoASFilters(r *Result) NoFilterResult {
	out := NoFilterResult{
		TaggedASes:   len(r.Filter.Tagged),
		FilteredASes: len(r.Filter.AfterRule3),
	}
	final := r.Filter.Cellular()
	for _, a := range r.Filter.Tagged {
		as, ok := r.World.Registry.Lookup(a)
		if !ok || as.Role.IsCellularAccess() {
			continue
		}
		out.FalseASes++
		if final[a] {
			out.SurvivingFalse++
		}
	}
	return out
}

// SmoothingResult quantifies the 7-day smoothing choice: how much the AS
// filter outcome churns when a single day's demand replaces the smoothed
// window.
type SmoothingResult struct {
	SmoothedASes int
	Day0ASes     int
	Flipped      int // ASes in exactly one of the two final sets
}

// AblationNoSmoothing reruns AS filtering on day-0 demand, redrawn from
// the run's world and DEMAND config.
func AblationNoSmoothing(r *Result) (SmoothingResult, error) {
	day0, err := demand.Day(r.World, r.Config.Demand, 0)
	if err != nil {
		return SmoothingResult{}, err
	}
	stats := aschar.BuildStats(aschar.Inputs{
		Detected: r.Detected,
		Beacon:   r.Beacon,
		Demand:   day0,
		ASOf:     r.ASOf,
	})
	smoothed, day0Set := r.Filter.Cellular(), aschar.Filter(stats, r.rules()).Cellular()
	res := SmoothingResult{SmoothedASes: len(smoothed), Day0ASes: len(day0Set)}
	for a := range day0Set {
		if !smoothed[a] {
			res.Flipped++
		}
	}
	for a := range smoothed {
		if !day0Set[a] {
			res.Flipped++
		}
	}
	return res, nil
}
