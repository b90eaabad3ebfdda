// Package traffic provides the workload-shaping primitives the synthetic
// world uses to reproduce the paper's demand distributions: bounded Zipf
// rank weights for heavy-tailed popularity, log-normal noise, explicit
// heavy-hitter splits (the CGNAT concentration behind Fig 8), binomial and
// Poisson draws, and per-day demand factors for the 7-day DEMAND window.
package traffic

import (
	"encoding/binary"
	"math"
	"math/bits"
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

// MaxPoissonMean is the largest mean callers should plan for: a normal
// draw around it would have to land 2^31 standard deviations out to pass
// the largest int. PoissonSmall saturates any larger draw at math.MaxInt.
const MaxPoissonMean float64 = 1 << 62

// PoissonSmall samples a Poisson variate with the inverse-transform method;
// suitable for the small means used for per-block beacon hit counts.
// Means above ~700 fall back to a normal approximation, rounded and
// clamped to [0, math.MaxInt].
//
// It takes the concrete PCG and draws exactly the uniforms rand.Rand's
// Float64 would over the same source, leaving src at the stream position
// a caller holding a rand.Rand over it would have reached. The product
// loop runs the generator as four lanes a step apart, each jumping four
// steps at a time, so the four multiply chains overlap instead of waiting
// on each other; the state is read once and written back once.
func PoissonSmall(src *rand.PCG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 700 {
		v := mean + math.Sqrt(mean)*rand.New(src).NormFloat64()
		switch {
		case v < 0:
			return 0
		case !(v+0.5 < 1<<63): // NaN too: an infinite mean plus -Inf
			return math.MaxInt
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	var buf [20]byte
	st, _ := src.AppendBinary(buf[:0])
	s0 := pcgState{binary.BigEndian.Uint64(st[4:]), binary.BigEndian.Uint64(st[12:])}
	// Lane j holds the state after step k+j; its output is uniform k+j.
	s1 := pcgStep1.apply(s0)
	s2 := pcgStep2.apply(s0)
	s3 := pcgStep2.apply(s1)
	s4 := pcgStep2.apply(s2)
	k, p := 0, 1.0
	for {
		if p *= s1.uniform(); p <= l {
			src.Seed(s1.hi, s1.lo)
			return k
		}
		if p *= s2.uniform(); p <= l {
			src.Seed(s2.hi, s2.lo)
			return k + 1
		}
		if p *= s3.uniform(); p <= l {
			src.Seed(s3.hi, s3.lo)
			return k + 2
		}
		if p *= s4.uniform(); p <= l {
			src.Seed(s4.hi, s4.lo)
			return k + 3
		}
		k += 4
		s1, s2, s3, s4 = pcgStep4.apply(s1), pcgStep4.apply(s2), pcgStep4.apply(s3), pcgStep4.apply(s4)
	}
}

// pcgState is math/rand/v2's 128-bit PCG state: the seed pair NewPCG and
// Seed take, and the two words AppendBinary writes.
type pcgState struct{ hi, lo uint64 }

// uniform is rand.Rand.Float64 of the PCG output at this state: the DXSM
// output function of PCG.Uint64, its top bits dropped to 53.
func (s pcgState) uniform() float64 {
	const cheapMul = 0xda942042e4dd58b5
	hi := s.hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= s.lo | 1
	return float64(hi<<11>>11) / (1 << 53)
}

// pcgJump is n steps of the PCG's linear congruential update,
// state*mul + inc mod 2^128, folded into one multiply and one add.
type pcgJump struct{ mul, inc pcgState }

// apply advances s by the jump.
func (j pcgJump) apply(s pcgState) pcgState {
	hi, lo := bits.Mul64(s.lo, j.mul.lo)
	hi += s.hi*j.mul.lo + s.lo*j.mul.hi
	lo, c := bits.Add64(lo, j.inc.lo, 0)
	hi, _ = bits.Add64(hi, j.inc.hi, c)
	return pcgState{hi, lo}
}

// twice is the jump applied two times: mul² and inc·mul + inc.
func (j pcgJump) twice() pcgJump {
	return pcgJump{mul: j.mul.mulBy(j.mul), inc: j.apply(j.inc)}
}

// mulBy returns s·m mod 2^128.
func (s pcgState) mulBy(m pcgState) pcgState {
	hi, lo := bits.Mul64(s.lo, m.lo)
	return pcgState{hi + s.hi*m.lo + s.lo*m.hi, lo}
}

// pcgStep1 is math/rand/v2's PCG update; pcgStep2 and pcgStep4 jump two
// and four steps.
var (
	pcgStep1 = pcgJump{
		mul: pcgState{2549297995355413924, 4865540595714422341},
		inc: pcgState{6364136223846793005, 1442695040888963407},
	}
	pcgStep2 = pcgStep1.twice()
	pcgStep4 = pcgStep2.twice()
)
