// Package classify implements the paper's core contribution: identifying
// cellular subnets from Network Information API beacon tallies. A block's
// cellular ratio — cellular-labeled hits over API-enabled hits — is
// thresholded to produce a cellular/non-cellular label per /24 or /48
// block (§4.1), validated against carrier ground truth with count- and
// demand-weighted precision/recall/F1 (§4.2, Table 3, Fig 3).
package classify

import (
	"fmt"
	"sort"

	"cellspot/internal/beacon"
	"cellspot/internal/netaddr"
	"cellspot/internal/par"
)

// DefaultThreshold is the paper's operating point: a simple majority of
// API-enabled hits labeled cellular.
const DefaultThreshold = 0.5

// Classifier labels blocks by thresholding their cellular ratio.
type Classifier struct {
	threshold float64
}

// New returns a classifier with the given threshold in (0, 1].
func New(threshold float64) (Classifier, error) {
	if threshold <= 0 || threshold > 1 {
		return Classifier{}, fmt.Errorf("classify: threshold %g out of (0,1]", threshold)
	}
	return Classifier{threshold: threshold}, nil
}

// Threshold returns the classifier's operating threshold.
func (c Classifier) Threshold() float64 { return c.threshold }

// Classify returns the set of blocks labeled cellular: blocks whose
// cellular ratio meets the threshold. Blocks without API-enabled hits are
// never labeled cellular (the method can only see what the API reports).
func (c Classifier) Classify(agg *beacon.Aggregate) netaddr.Set {
	out := make(netaddr.Set)
	for i := range agg.Blocks() {
		if b, n := agg.At(i); c.cellular(n) {
			out.Add(b)
		}
	}
	return out
}

// cellular reports whether a tally's cellular ratio meets the threshold.
func (c Classifier) cellular(n beacon.Counts) bool {
	return n.API > 0 && float64(n.Cell)/float64(n.API) >= c.threshold
}

// classifyShardSize is the number of blocks per classification shard.
const classifyShardSize = 8192

// ClassifyParallel returns exactly the set Classify returns, sharding
// the aggregate's rows across `parallelism` workers (0 = GOMAXPROCS,
// 1 = serial). Classification draws no randomness, so the only merge
// requirement is set union; the result is identical at every setting.
func (c Classifier) ClassifyParallel(agg *beacon.Aggregate, parallelism int) netaddr.Set {
	if par.Workers(parallelism) <= 1 {
		return c.Classify(agg)
	}
	rows := agg.Blocks()
	nShards := par.Shards(rows, classifyShardSize)
	locals := make([][]netaddr.Block, nShards)
	par.Do(nShards, parallelism, func(s int) {
		lo, hi := par.Span(s, rows, classifyShardSize)
		var buf []netaddr.Block
		for i := lo; i < hi; i++ {
			if b, n := agg.At(i); c.cellular(n) {
				buf = append(buf, b)
			}
		}
		locals[s] = buf
	})
	n := 0
	for _, blocks := range locals {
		n += len(blocks)
	}
	out := make(netaddr.Set, n)
	for _, blocks := range locals {
		for _, b := range blocks {
			out.Add(b)
		}
	}
	return out
}

// Confusion is a 2x2 confusion matrix; cells may be counts or
// demand-weighted sums.
type Confusion struct {
	TP, FP, TN, FN float64
}

// Precision returns TP/(TP+FP); 0 when undefined.
func (m Confusion) Precision() float64 {
	if m.TP+m.FP == 0 {
		return 0
	}
	return m.TP / (m.TP + m.FP)
}

// Recall returns TP/(TP+FN); 0 when undefined.
func (m Confusion) Recall() float64 {
	if m.TP+m.FN == 0 {
		return 0
	}
	return m.TP / (m.TP + m.FN)
}

// F1 returns the harmonic mean of precision and recall; 0 when undefined.
func (m Confusion) F1() float64 {
	p, r := m.Precision(), m.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Add accumulates a labeled example with the given weight.
func (m *Confusion) Add(truthCellular, detectedCellular bool, w float64) {
	switch {
	case truthCellular && detectedCellular:
		m.TP += w
	case truthCellular && !detectedCellular:
		m.FN += w
	case !truthCellular && detectedCellular:
		m.FP += w
	default:
		m.TN += w
	}
}

// Evaluate scores detected cellular blocks against a carrier's ground-truth
// labels. Only blocks present in the truth map are scored (the paper's
// per-carrier validation covers the carrier's own subnets). weight maps a
// block to its weight — 1 for CIDR counts, its DU for demand weighting; a
// nil weight means count mode.
func Evaluate(detected netaddr.Set, truth map[netaddr.Block]bool, weight func(netaddr.Block) float64) Confusion {
	blocks := make([]netaddr.Block, 0, len(truth))
	for b := range truth {
		blocks = append(blocks, b)
	}
	netaddr.SortBlocks(blocks) // reproducible weight accumulation order
	var m Confusion
	for _, b := range blocks {
		w := 1.0
		if weight != nil {
			w = weight(b)
		}
		m.Add(truth[b], detected.Has(b), w)
	}
	return m
}

// SweepPoint is one threshold's validation outcome.
type SweepPoint struct {
	Threshold float64
	ByCount   Confusion
	ByDemand  Confusion
}

// Sweep evaluates the classifier across thresholds against one carrier's
// truth, producing the data behind Fig 3. demandOf may be nil to skip
// demand weighting. Thresholds are evaluated as given, in order.
func Sweep(agg *beacon.Aggregate, truth map[netaddr.Block]bool, demandOf func(netaddr.Block) float64, thresholds []float64) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(thresholds))
	for _, th := range thresholds {
		c, err := New(th)
		if err != nil {
			return nil, err
		}
		detected := c.Classify(agg)
		p := SweepPoint{Threshold: th, ByCount: Evaluate(detected, truth, nil)}
		if demandOf != nil {
			p.ByDemand = Evaluate(detected, truth, demandOf)
		}
		out = append(out, p)
	}
	return out, nil
}

// Calibrate reproduces the paper's parameter selection (§4.2): sweep the
// thresholds against one carrier's ground truth and return the point with
// the highest F1. byDemand selects demand-weighted F1 (the paper's Fig 3
// view); otherwise CIDR counts are used. Ties go to the lower threshold.
// An empty threshold list is an error.
func Calibrate(agg *beacon.Aggregate, truth map[netaddr.Block]bool, demandOf func(netaddr.Block) float64, thresholds []float64, byDemand bool) (SweepPoint, error) {
	if len(thresholds) == 0 {
		return SweepPoint{}, fmt.Errorf("classify: no thresholds to calibrate over")
	}
	pts, err := Sweep(agg, truth, demandOf, thresholds)
	if err != nil {
		return SweepPoint{}, err
	}
	best := pts[0]
	score := func(p SweepPoint) float64 {
		if byDemand {
			return p.ByDemand.F1()
		}
		return p.ByCount.F1()
	}
	for _, p := range pts[1:] {
		if score(p) > score(best) {
			best = p
		}
	}
	return best, nil
}

// ThresholdRange returns n evenly spaced thresholds over (0, 1],
// e.g. ThresholdRange(100) = 0.01, 0.02, ..., 1.00.
func ThresholdRange(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i+1) / float64(n)
	}
	return out
}

// RatioSample is one block's cellular ratio with an attached weight.
type RatioSample struct {
	Block netaddr.Block
	Ratio float64
	DU    float64
}

// Ratios extracts the cellular ratio of every API-visible block of one
// family, with demand attached via demandOf (nil leaves DU zero). The
// result is sorted by ratio — the raw material of Fig 2.
func Ratios(agg *beacon.Aggregate, fam netaddr.Family, demandOf func(netaddr.Block) float64) []RatioSample {
	var out []RatioSample
	for i := range agg.Blocks() {
		b, counts := agg.At(i)
		if b.Fam() != fam || counts.API == 0 {
			continue
		}
		s := RatioSample{Block: b, Ratio: float64(counts.Cell) / float64(counts.API)}
		if demandOf != nil {
			s.DU = demandOf(b)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ratio != out[j].Ratio {
			return out[i].Ratio < out[j].Ratio
		}
		return out[i].Block.Less(out[j].Block)
	})
	return out
}

// BucketShares summarizes ratio samples into the paper's three buckets
// (<lo, [lo,hi], >hi), returning block-count shares and demand shares.
// The paper uses lo=0.1, hi=0.9.
func BucketShares(samples []RatioSample, lo, hi float64) (countShares, demandShares [3]float64) {
	var nTotal, duTotal float64
	for _, s := range samples {
		nTotal++
		duTotal += s.DU
		idx := 1
		switch {
		case s.Ratio < lo:
			idx = 0
		case s.Ratio > hi:
			idx = 2
		}
		countShares[idx]++
		demandShares[idx] += s.DU
	}
	if nTotal > 0 {
		for i := range countShares {
			countShares[i] /= nTotal
		}
	}
	if duTotal > 0 {
		for i := range demandShares {
			demandShares[i] /= duTotal
		}
	}
	return countShares, demandShares
}
