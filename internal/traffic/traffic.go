// Package traffic provides the workload-shaping primitives the synthetic
// world uses to reproduce the paper's demand distributions: bounded Zipf
// rank weights for heavy-tailed popularity, log-normal noise, explicit
// heavy-hitter splits (the CGNAT concentration behind Fig 8), binomial and
// Poisson draws, and per-day demand factors for the 7-day DEMAND window.
package traffic

import (
	"math"
	"math/rand/v2"
)

// ZipfWeights returns n weights proportional to 1/rank^s, normalized to sum
// to 1. s=0 yields a uniform distribution. n<=0 returns nil.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// LogNormal samples exp(N(mu, sigma^2)).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// HeavySplit returns n non-negative weights summing to 1 in which the first
// `heavy` entries jointly carry `heavyShare` of the mass with a Zipf(s=1)
// profile, and the remaining entries share the rest with a steeply decaying
// tail. This reproduces the paper's CGNAT effect: ~25 /24 subnets carrying
// 99.3% of a large operator's cellular demand, with demand in the next
// subnet dropping by nearly two orders of magnitude (Fig 8).
//
// heavy is clamped to [1, n]; heavyShare to [0, 1]. n <= 0 returns nil.
func HeavySplit(rng *rand.Rand, n, heavy int, heavyShare float64) []float64 {
	if n <= 0 {
		return nil
	}
	if heavy < 1 {
		heavy = 1
	}
	if heavy > n {
		heavy = n
	}
	if heavyShare < 0 {
		heavyShare = 0
	}
	if heavyShare > 1 {
		heavyShare = 1
	}
	out := make([]float64, n)
	// Heavy head: Zipf with multiplicative jitter.
	head := ZipfWeights(heavy, 1.0)
	hsum := 0.0
	for i := range head {
		head[i] *= LogNormal(rng, 0, 0.3)
		hsum += head[i]
	}
	for i := range head {
		out[i] = head[i] / hsum * heavyShare
	}
	// Tail: exponential decay in rank so the post-head drop is steep.
	tail := n - heavy
	if tail > 0 {
		tw := make([]float64, tail)
		tsum := 0.0
		for i := range tw {
			tw[i] = math.Exp(-4*float64(i)/float64(tail)) * LogNormal(rng, 0, 0.5)
			tsum += tw[i]
		}
		rest := 1 - heavyShare
		for i := range tw {
			out[heavy+i] = tw[i] / tsum * rest
		}
	} else {
		// No tail: renormalize the head to absorb the full mass.
		f := 1 / heavyShare
		if heavyShare == 0 {
			f = 0
		}
		for i := range out {
			out[i] *= f
		}
	}
	return out
}

// GradualSplit returns n weights summing to 1 that decay gradually
// (log-normal multiplicative spread around a shallow power law), modelling
// fixed-line subnets whose demand the paper finds "more gradually
// distributed" than cellular. n <= 0 returns nil.
func GradualSplit(rng *rand.Rand, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	sum := 0.0
	for i := range out {
		out[i] = math.Pow(float64(i+1), -0.7) * LogNormal(rng, 0, 0.6)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// DailyFactors returns `days` multiplicative demand factors with mean ~1,
// modelling the day-to-day variation the paper smooths out with its 7-day
// window: a mild weekend swell plus log-normal jitter.
func DailyFactors(rng *rand.Rand, days int, jitter float64) []float64 {
	if days <= 0 {
		return nil
	}
	out := make([]float64, days)
	sum := 0.0
	for i := range out {
		weekday := i % 7
		base := 1.0
		if weekday == 5 || weekday == 6 {
			base = 1.15 // weekend
		}
		out[i] = base * LogNormal(rng, 0, jitter)
		sum += out[i]
	}
	mean := sum / float64(days)
	for i := range out {
		out[i] /= mean
	}
	return out
}

// Binomial samples Binomial(n, p). Small n uses direct Bernoulli trials;
// large n uses a normal approximation clamped to [0, n].
func Binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	sd := math.Sqrt(mean * (1 - p))
	v := int(mean + sd*rng.NormFloat64() + 0.5)
	if v < 0 {
		v = 0
	}
	if v > n {
		v = n
	}
	return v
}

// PoissonSmall samples a Poisson variate with the inverse-transform method;
// suitable for the small means used for per-block beacon hit counts.
// Means above ~700 fall back to a normal approximation.
//
// It takes the concrete PCG so the per-uniform draw inlines into the
// product loop. Each uniform is exactly rand.Rand.Float64's over the same
// source, so a caller holding a rand.Rand over src sees the same values
// and the same stream position it would have had drawing through it.
func PoissonSmall(src *rand.PCG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 700 {
		v := mean + math.Sqrt(mean)*rand.New(src).NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= float64(src.Uint64()<<11>>11) / (1 << 53)
		if p <= l {
			return k
		}
		k++
	}
}
