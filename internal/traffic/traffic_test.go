package traffic

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"cellspot/internal/stats"
)

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func almostOne(t *testing.T, name string, xs []float64) {
	t.Helper()
	if s := sum(xs); math.Abs(s-1) > 1e-9 {
		t.Errorf("%s sums to %g, want 1", name, s)
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1)
	almostOne(t, "zipf", w)
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Error("zipf weights not decreasing")
		}
	}
	u := ZipfWeights(4, 0)
	for _, v := range u {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("s=0 not uniform: %v", u)
		}
	}
	if ZipfWeights(0, 1) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestHeavySplitConcentration(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	// Model the paper's mixed EU operator: 514 active cellular /24s where
	// 25 carry 99.3% of cellular demand.
	w := HeavySplit(rng, 514, 25, 0.993)
	almostOne(t, "heavy split", w)
	head := 0.0
	for _, v := range w[:25] {
		head += v
	}
	if math.Abs(head-0.993) > 1e-9 {
		t.Errorf("head share = %g, want 0.993", head)
	}
	// The paper observes demand dropping by nearly two orders of magnitude
	// right after the heavy head.
	minHead := math.Inf(1)
	for _, v := range w[:25] {
		if v < minHead {
			minHead = v
		}
	}
	maxTail := 0.0
	for _, v := range w[25:] {
		if v > maxTail {
			maxTail = v
		}
	}
	if maxTail*5 > minHead {
		t.Errorf("head/tail separation too weak: min head %g, max tail %g", minHead, maxTail)
	}
}

func TestHeavySplitClamping(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	if HeavySplit(rng, 0, 5, 0.9) != nil {
		t.Error("n=0 should return nil")
	}
	w := HeavySplit(rng, 3, 10, 2.0) // heavy > n, share > 1
	almostOne(t, "clamped", w)
	w = HeavySplit(rng, 5, 0, -1) // heavy < 1, share < 0
	if len(w) != 5 {
		t.Fatalf("len = %d", len(w))
	}
	// All mass in the tail when heavyShare=0.
	if w[0] != 0 {
		t.Errorf("head got weight %g with zero share", w[0])
	}
}

func TestHeavySplitAllHeavy(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	w := HeavySplit(rng, 4, 4, 0.5) // no tail: head absorbs everything
	almostOne(t, "all-heavy", w)
}

func TestGradualSplit(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	w := GradualSplit(rng, 1000)
	almostOne(t, "gradual", w)
	if GradualSplit(rng, 0) != nil {
		t.Error("n=0 should return nil")
	}
	// Gradual means far less concentrated than the CGNAT split: the top 25
	// of 1000 should carry well under 90%.
	if got := stats.TopShare(w, 25); got > 0.9 {
		t.Errorf("gradual top-25 share = %g, too concentrated", got)
	}
}

func TestDailyFactors(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	f := DailyFactors(rng, 7, 0.05)
	if len(f) != 7 {
		t.Fatalf("len = %d", len(f))
	}
	mean := sum(f) / 7
	if math.Abs(mean-1) > 1e-9 {
		t.Errorf("mean = %g, want 1", mean)
	}
	for _, v := range f {
		if v <= 0 {
			t.Errorf("non-positive factor %g", v)
		}
	}
	if DailyFactors(rng, 0, 0.1) != nil {
		t.Error("days=0 should return nil")
	}
}

func TestBinomial(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	if Binomial(rng, 0, 0.5) != 0 || Binomial(rng, -3, 0.5) != 0 {
		t.Error("n<=0 should return 0")
	}
	if Binomial(rng, 10, 0) != 0 {
		t.Error("p=0 should return 0")
	}
	if Binomial(rng, 10, 1) != 10 {
		t.Error("p=1 should return n")
	}
	for _, tc := range []struct {
		n int
		p float64
	}{{20, 0.3}, {500, 0.1}, {10000, 0.7}} {
		const rounds = 5000
		sum := 0
		for i := 0; i < rounds; i++ {
			k := Binomial(rng, tc.n, tc.p)
			if k < 0 || k > tc.n {
				t.Fatalf("Binomial(%d,%g) = %d out of range", tc.n, tc.p, k)
			}
			sum += k
		}
		mean := float64(sum) / rounds
		want := float64(tc.n) * tc.p
		if math.Abs(mean-want) > want*0.05+0.5 {
			t.Errorf("Binomial(%d,%g) mean = %g, want %g", tc.n, tc.p, mean, want)
		}
	}
}

func TestPoissonSmall(t *testing.T) {
	src := rand.NewPCG(6, 6)
	if PoissonSmall(src, 0) != 0 {
		t.Error("mean 0 should return 0")
	}
	if PoissonSmall(src, -5) != 0 {
		t.Error("negative mean should return 0")
	}
	for _, mean := range []float64{0.5, 3, 30, 1000} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += PoissonSmall(src, mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("mean %g: sampled mean %g", mean, got)
		}
	}
}

// poissonViaRand is the inverse-transform loop drawn through a rand.Rand,
// the form PoissonSmall had before it took the PCG: the oracle the kernel
// must reproduce draw for draw.
func poissonViaRand(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 700 {
		v := mean + math.Sqrt(mean)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// TestPoissonSmallDrawsLikeRand pins the kernel to the rand.Rand loop: the
// same variate and the same generator state afterwards, on both sides of
// the normal-approximation cutoff, for means that draw no uniform at all.
func TestPoissonSmallDrawsLikeRand(t *testing.T) {
	means := []float64{-3, 0, 1e-9, 0.5, 8, 250, 699.9, 700, 700.1}
	for seed := uint64(1); seed <= 50; seed++ {
		src := rand.NewPCG(seed, seed^0xbeac0_0001)
		ref := rand.NewPCG(seed, seed^0xbeac0_0001)
		refRng := rand.New(ref)
		for round := 0; round < 3; round++ {
			for _, mean := range means {
				got, want := PoissonSmall(src, mean), poissonViaRand(refRng, mean)
				if got != want {
					t.Fatalf("seed %d mean %g: %d, want %d", seed, mean, got, want)
				}
				if *src != *ref {
					t.Fatalf("seed %d mean %g: generator state differs after the draw", seed, mean)
				}
			}
		}
	}
}

// Property: HeavySplit output is a probability vector for any sane input.
func TestHeavySplitProperty(t *testing.T) {
	f := func(seed uint64, nRaw, heavyRaw uint16, shareRaw float64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := int(nRaw%2000) + 1
		heavy := int(heavyRaw % 100)
		share := math.Mod(math.Abs(shareRaw), 1.2) // sometimes >1 to test clamping
		w := HeavySplit(rng, n, heavy, share)
		if len(w) != n {
			return false
		}
		sum := 0.0
		for _, v := range w {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ZipfWeights is a decreasing probability vector.
func TestZipfProperty(t *testing.T) {
	f := func(nRaw uint16, sRaw float64) bool {
		n := int(nRaw%1000) + 1
		s := math.Mod(math.Abs(sRaw), 3)
		w := ZipfWeights(n, s)
		sum := 0.0
		for i, v := range w {
			if v < 0 || (i > 0 && v > w[i-1]+1e-15) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHeavySplit(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < b.N; i++ {
		HeavySplit(rng, 514, 25, 0.993)
	}
}

// TestPoissonSmallNeverWraps: the normal approximation rounds into
// [0, math.MaxInt] for any mean; a draw beyond the largest int saturates
// instead of converting to the minimum int.
func TestPoissonSmallNeverWraps(t *testing.T) {
	src := rand.NewPCG(1, 2)
	for _, mean := range []float64{700.5, 1e6, MaxPoissonMean, 1e19, 1e300, math.Inf(1)} {
		for range 100 {
			if v := PoissonSmall(src, mean); v < 0 {
				t.Fatalf("mean %g drew %d", mean, v)
			}
		}
	}
	if v := PoissonSmall(src, 1e300); v != math.MaxInt {
		t.Errorf("mean 1e300 drew %d, want the largest int", v)
	}
}
