// Package stats provides the small statistical toolkit the reproduction's
// analysis stages share: empirical CDFs (plain and weighted), quantiles,
// rank/share series for "ranked demand" figures, and top-share concentration
// metrics. All functions are deterministic and allocation-conscious; inputs
// are never mutated unless documented.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64 samples.
// Samples may carry weights; an unweighted ECDF uses weight 1 per sample.
type ECDF struct {
	xs []float64 // sorted sample values
	ws []float64 // cumulative weights, same length as xs
	tw float64   // total weight
}

// NewECDF builds an unweighted ECDF from samples. The input slice is copied.
func NewECDF(samples []float64) *ECDF {
	ws := make([]float64, len(samples))
	for i := range ws {
		ws[i] = 1
	}
	e, err := NewWeightedECDF(samples, ws)
	if err != nil {
		// Equal lengths by construction; weights are all positive.
		panic(err)
	}
	return e
}

// NewWeightedECDF builds an ECDF where sample i carries weight ws[i].
// Negative weights are rejected; zero weights are allowed and contribute
// nothing. Input slices are copied.
func NewWeightedECDF(samples, ws []float64) (*ECDF, error) {
	if len(samples) != len(ws) {
		return nil, fmt.Errorf("stats: samples/weights length mismatch %d != %d", len(samples), len(ws))
	}
	type sw struct{ x, w float64 }
	tmp := make([]sw, len(samples))
	for i := range samples {
		if ws[i] < 0 {
			return nil, fmt.Errorf("stats: negative weight %g at index %d", ws[i], i)
		}
		if math.IsNaN(samples[i]) || math.IsNaN(ws[i]) {
			return nil, fmt.Errorf("stats: NaN at index %d", i)
		}
		tmp[i] = sw{samples[i], ws[i]}
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].x < tmp[j].x })
	e := &ECDF{xs: make([]float64, len(tmp)), ws: make([]float64, len(tmp))}
	cum := 0.0
	for i, s := range tmp {
		cum += s.w
		e.xs[i], e.ws[i] = s.x, cum
	}
	e.tw = cum
	return e, nil
}

// At returns P(X <= x), the fraction of total weight at or below x.
// An empty ECDF returns 0.
func (e *ECDF) At(x float64) float64 {
	if e.tw == 0 || len(e.xs) == 0 {
		return 0
	}
	// Index of first sample > x.
	i := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	if i == 0 {
		return 0
	}
	return e.ws[i-1] / e.tw
}

// Quantile returns the smallest sample value v with P(X <= v) >= q,
// for q in [0,1]. An empty ECDF returns NaN.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.xs[0]
	}
	if q >= 1 {
		return e.xs[len(e.xs)-1]
	}
	target := q * e.tw
	i := sort.Search(len(e.ws), func(i int) bool { return e.ws[i] >= target })
	if i == len(e.ws) {
		i = len(e.ws) - 1
	}
	return e.xs[i]
}

// Points returns n evenly spaced (x, P(X<=x)) points spanning the sample
// range, suitable for plotting a CDF curve. n must be >= 2.
func (e *ECDF) Points(n int) []Point {
	if len(e.xs) == 0 || n < 2 {
		return nil
	}
	lo, hi := e.xs[0], e.xs[len(e.xs)-1]
	out := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = Point{X: x, Y: e.At(x)}
	}
	return out
}

// Point is one (x, y) sample of a curve.
type Point struct{ X, Y float64 }

// RankShare sorts values descending and returns, for each rank (1-based),
// the value's share of the total. It reproduces the paper's "ranked demand"
// figures (Figs 7 and 8). Zero total yields an empty result.
func RankShare(values []float64) []Point {
	total := 0.0
	for _, v := range values {
		total += v
	}
	if total <= 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	out := make([]Point, len(sorted))
	for i, v := range sorted {
		out[i] = Point{X: float64(i + 1), Y: v / total}
	}
	return out
}

// TopShare returns the fraction of the total captured by the k largest
// values. k > len(values) is treated as len(values).
func TopShare(values []float64, k int) float64 {
	if k <= 0 || len(values) == 0 {
		return 0
	}
	if k > len(values) {
		k = len(values)
	}
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total, top := 0.0, 0.0
	for i, v := range sorted {
		total += v
		if i < k {
			top += v
		}
	}
	if total <= 0 {
		return 0
	}
	return top / total
}

// MinCountForShare returns the smallest number of largest values whose sum
// reaches share (0..1] of the total; 0 if the total is zero. It answers
// questions like "how many /24s carry 99.5% of cellular demand?".
func MinCountForShare(values []float64, share float64) int {
	if share <= 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	total := 0.0
	for _, v := range sorted {
		total += v
	}
	if total <= 0 {
		return 0
	}
	target := share * total
	cum := 0.0
	for i, v := range sorted {
		cum += v
		if cum >= target-1e-12 {
			return i + 1
		}
	}
	return len(sorted)
}

// Gini returns the Gini coefficient of non-negative values: 0 for perfect
// equality, approaching 1 when a single value dominates. Used to quantify
// the paper's demand-concentration findings (Findings 2 and 3). Returns 0
// for empty or zero-total input; negative values are an error.
func Gini(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, nil
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, fmt.Errorf("stats: Gini requires non-negative values")
	}
	var cum, weighted float64
	for i, v := range sorted {
		cum += v
		weighted += float64(i+1) * v
	}
	if cum == 0 {
		return 0, nil
	}
	n := float64(len(sorted))
	return (2*weighted - (n+1)*cum) / (n * cum), nil
}
