package classify

import (
	"fmt"
	"math"
)

// Wilson confidence machinery: the cellular ratio is a binomial proportion
// estimated from few API-enabled hits, so a block's label carries sampling
// uncertainty the paper handles implicitly (its validation shows 10%
// cellular labels already classify reliably, because cellular false
// positives are rare). These helpers make the uncertainty explicit: score
// intervals for a block's true cellular share and the minimum hit count
// needed to call a label at a given confidence.

// z95 is the standard normal quantile for 95% two-sided intervals.
const z95 = 1.959963984540054

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with k successes in n trials at confidence z (use z95).
// n must be positive.
func WilsonInterval(k, n int, z float64) (lo, hi float64, err error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("classify: Wilson interval needs n > 0")
	}
	if k < 0 || k > n {
		return 0, 0, fmt.Errorf("classify: k=%d out of [0,%d]", k, n)
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}

// Confident reports whether a block's label at the given threshold is
// statistically settled: the Wilson interval of its cellular share lies
// entirely on one side of the threshold.
func Confident(cell, api int, threshold, z float64) (bool, error) {
	lo, hi, err := WilsonInterval(cell, api, z)
	if err != nil {
		return false, err
	}
	return hi < threshold || lo >= threshold, nil
}

// ConfidentFraction reports the fraction of classified blocks (those with
// API hits) whose labels are settled at the given confidence — a data
// quality diagnostic for a BEACON aggregate.
func ConfidentFraction(counts map[int][2]int, threshold, z float64) float64 {
	// counts maps an arbitrary index to (cell, api) pairs; used by callers
	// that have already extracted tallies. Kept simple on purpose.
	settled, total := 0, 0
	for _, ca := range counts {
		cell, api := ca[0], ca[1]
		if api == 0 {
			continue
		}
		total++
		if ok, err := Confident(cell, api, threshold, z); err == nil && ok {
			settled++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(settled) / float64(total)
}

// Z95 exposes the 95% quantile for callers.
func Z95() float64 { return z95 }
