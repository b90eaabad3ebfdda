package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestECDFWeighted(t *testing.T) {
	e, err := NewWeightedECDF([]float64{0, 1}, []float64{9, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.At(0); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("At(0) = %g, want 0.9", got)
	}
	if got := e.At(1); got != 1 {
		t.Errorf("At(1) = %g, want 1", got)
	}
}

func TestECDFErrors(t *testing.T) {
	if _, err := NewWeightedECDF([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewWeightedECDF([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewWeightedECDF([]float64{math.NaN()}, []float64{1}); err == nil {
		t.Error("NaN sample accepted")
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if got := e.At(1); got != 0 {
		t.Errorf("empty At = %g", got)
	}
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty Quantile not NaN")
	}
	if pts := e.Points(10); pts != nil {
		t.Errorf("empty Points = %v", pts)
	}
}

func TestQuantile(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40, 50})
	if got := e.Quantile(0.5); got != 30 {
		t.Errorf("median = %g, want 30", got)
	}
	if got := e.Quantile(0); got != 10 {
		t.Errorf("q0 = %g, want 10", got)
	}
	if got := e.Quantile(1); got != 50 {
		t.Errorf("q1 = %g, want 50", got)
	}
	if q20, q80 := e.Quantile(0.2), e.Quantile(0.8); q20 != 10 || q80 != 40 {
		t.Errorf("q0.2, q0.8 = %g, %g, want 10, 40", q20, q80)
	}
}

func TestPoints(t *testing.T) {
	e := NewECDF([]float64{0, 1})
	pts := e.Points(3)
	if len(pts) != 3 || pts[0].X != 0 || pts[2].X != 1 {
		t.Fatalf("Points = %v", pts)
	}
	if pts[2].Y != 1 {
		t.Errorf("last point Y = %g, want 1", pts[2].Y)
	}
}

func TestRankShare(t *testing.T) {
	pts := RankShare([]float64{1, 3, 6})
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Y != 0.6 || pts[1].Y != 0.3 || pts[2].Y != 0.1 {
		t.Errorf("shares = %v", pts)
	}
	if pts[0].X != 1 || pts[2].X != 3 {
		t.Errorf("ranks = %v", pts)
	}
	if RankShare(nil) != nil {
		t.Error("RankShare(nil) != nil")
	}
	if RankShare([]float64{0, 0}) != nil {
		t.Error("zero-total RankShare != nil")
	}
}

func TestTopShare(t *testing.T) {
	v := []float64{5, 1, 1, 1, 1, 1}
	if got := TopShare(v, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("TopShare(1) = %g, want 0.5", got)
	}
	if got := TopShare(v, 100); got != 1 {
		t.Errorf("TopShare(k>n) = %g, want 1", got)
	}
	if got := TopShare(v, 0); got != 0 {
		t.Errorf("TopShare(0) = %g, want 0", got)
	}
	if got := TopShare(nil, 3); got != 0 {
		t.Errorf("TopShare(nil) = %g", got)
	}
}

func TestMinCountForShare(t *testing.T) {
	// One heavy hitter carrying 99% — mirrors the CGNAT concentration finding.
	v := []float64{99, 0.5, 0.5}
	if got := MinCountForShare(v, 0.99); got != 1 {
		t.Errorf("MinCountForShare(0.99) = %d, want 1", got)
	}
	if got := MinCountForShare(v, 1.0); got != 3 {
		t.Errorf("MinCountForShare(1) = %d, want 3", got)
	}
	if got := MinCountForShare(nil, 0.5); got != 0 {
		t.Errorf("MinCountForShare(nil) = %d", got)
	}
	if got := MinCountForShare(v, 0); got != 0 {
		t.Errorf("MinCountForShare(share=0) = %d", got)
	}
}

func TestGini(t *testing.T) {
	if g, err := Gini([]float64{1, 1, 1, 1}); err != nil || math.Abs(g) > 1e-12 {
		t.Errorf("equal values: g=%g err=%v", g, err)
	}
	// One heavy hitter among many zeros approaches 1.
	v := make([]float64, 100)
	v[0] = 100
	if g, err := Gini(v); err != nil || g < 0.95 {
		t.Errorf("single dominant value: g=%g err=%v", g, err)
	}
	if g, err := Gini(nil); err != nil || g != 0 {
		t.Errorf("empty: g=%g err=%v", g, err)
	}
	if g, err := Gini([]float64{0, 0}); err != nil || g != 0 {
		t.Errorf("all-zero: g=%g err=%v", g, err)
	}
	if _, err := Gini([]float64{1, -1}); err == nil {
		t.Error("negative accepted")
	}
}

// Property: Gini stays in [0,1) and is scale-invariant.
func TestGiniProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			v[i] = float64(x)
		}
		g1, err1 := Gini(v)
		for i := range v {
			v[i] *= 7.5
		}
		g2, err2 := Gini(v)
		if err1 != nil || err2 != nil {
			return false
		}
		return g1 >= 0 && g1 < 1 && math.Abs(g1-g2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ECDF is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		e := NewECDF(samples)
		prev := -1.0
		for _, p := range e.Points(32) {
			if p.Y < prev-1e-12 || p.Y < 0 || p.Y > 1 {
				return false
			}
			prev = p.Y
		}
		return e.At(math.Inf(1)) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Quantile and At are near-inverses: At(Quantile(q)) >= q.
func TestQuantileInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for round := 0; round < 50; round++ {
		n := 1 + rng.IntN(100)
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		e := NewECDF(samples)
		for probe := 0; probe < 20; probe++ {
			q := rng.Float64()
			if got := e.At(e.Quantile(q)); got < q-1e-9 {
				t.Fatalf("At(Quantile(%g)) = %g < q", q, got)
			}
		}
	}
}

// Property: RankShare shares are non-increasing and sum to 1.
func TestRankShareProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v > 0 && v < 1e100 { // bounded so the total cannot overflow
				vals = append(vals, v)
			}
		}
		pts := RankShare(vals)
		if len(vals) == 0 {
			return pts == nil
		}
		sum, prev := 0.0, math.Inf(1)
		for _, p := range pts {
			if p.Y > prev+1e-12 {
				return false
			}
			prev = p.Y
			sum += p.Y
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkECDFAt(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	e := NewECDF(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(float64(i%1000) / 1000)
	}
}
