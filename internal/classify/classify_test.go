package classify

import (
	"maps"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cellspot/internal/beacon"
	"cellspot/internal/netaddr"
	"cellspot/internal/world"
)

func aggWith(t *testing.T, rows ...[4]int) *beacon.Aggregate {
	t.Helper()
	a := beacon.NewAggregate()
	for _, r := range rows {
		a.Add(netaddr.V4Block(10, 0, byte(r[0])), r[1], r[2], r[3])
	}
	return a
}

func TestNewValidation(t *testing.T) {
	for _, th := range []float64{0, -0.5, 1.01} {
		if _, err := New(th); err == nil {
			t.Errorf("threshold %g accepted", th)
		}
	}
	c, err := New(0.5)
	if err != nil || c.Threshold() != 0.5 {
		t.Fatalf("New(0.5): %v", err)
	}
}

func TestClassify(t *testing.T) {
	a := aggWith(t,
		[4]int{1, 100, 20, 19}, // ratio 0.95 -> cellular
		[4]int{2, 100, 20, 10}, // ratio 0.5 -> cellular (>= threshold)
		[4]int{3, 100, 20, 9},  // ratio 0.45 -> not
		[4]int{4, 100, 0, 0},   // no API data -> never cellular
	)
	c, _ := New(0.5)
	got := c.Classify(a)
	if !got.Has(netaddr.V4Block(10, 0, 1)) || !got.Has(netaddr.V4Block(10, 0, 2)) {
		t.Error("high-ratio blocks not detected")
	}
	if got.Has(netaddr.V4Block(10, 0, 3)) || got.Has(netaddr.V4Block(10, 0, 4)) {
		t.Error("low-ratio or API-less block detected")
	}
}

func TestConfusionMetrics(t *testing.T) {
	m := Confusion{TP: 8, FP: 2, TN: 85, FN: 5}
	if p := m.Precision(); math.Abs(p-0.8) > 1e-12 {
		t.Errorf("precision = %g", p)
	}
	if r := m.Recall(); math.Abs(r-8.0/13) > 1e-12 {
		t.Errorf("recall = %g", r)
	}
	wantF1 := 2 * 0.8 * (8.0 / 13) / (0.8 + 8.0/13)
	if f := m.F1(); math.Abs(f-wantF1) > 1e-12 {
		t.Errorf("F1 = %g, want %g", f, wantF1)
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.F1() != 0 {
		t.Error("empty confusion metrics not 0")
	}
}

func TestEvaluateCountsAndWeights(t *testing.T) {
	detected := netaddr.NewSet(netaddr.V4Block(10, 0, 1), netaddr.V4Block(10, 0, 3))
	truth := map[netaddr.Block]bool{
		netaddr.V4Block(10, 0, 1): true,  // TP
		netaddr.V4Block(10, 0, 2): true,  // FN
		netaddr.V4Block(10, 0, 3): false, // FP
		netaddr.V4Block(10, 0, 4): false, // TN
	}
	m := Evaluate(detected, truth, nil)
	if m.TP != 1 || m.FN != 1 || m.FP != 1 || m.TN != 1 {
		t.Fatalf("count confusion = %+v", m)
	}
	w := map[netaddr.Block]float64{
		netaddr.V4Block(10, 0, 1): 10,
		netaddr.V4Block(10, 0, 2): 2,
		netaddr.V4Block(10, 0, 3): 0.5,
		netaddr.V4Block(10, 0, 4): 100,
	}
	md := Evaluate(detected, truth, func(b netaddr.Block) float64 { return w[b] })
	if md.TP != 10 || md.FN != 2 || md.FP != 0.5 || md.TN != 100 {
		t.Fatalf("weighted confusion = %+v", md)
	}
	// Blocks detected outside the truth list are ignored.
	detected.Add(netaddr.V4Block(99, 0, 0))
	m2 := Evaluate(detected, truth, nil)
	if m2 != m {
		t.Error("out-of-truth detection changed the matrix")
	}
}

func TestSweepStability(t *testing.T) {
	// Reproduces Fig 3's key property: with clean separation (cellular
	// ratios ~0.9, fixed ~0.0), F1 is flat across a wide threshold range.
	a := beacon.NewAggregate()
	truth := map[netaddr.Block]bool{}
	for i := 0; i < 50; i++ {
		b := netaddr.V4Block(20, 1, byte(i))
		a.Add(b, 1000, 130, 120) // ratio 0.92
		truth[b] = true
	}
	for i := 0; i < 500; i++ {
		b := netaddr.V4Block(30, byte(i/250), byte(i%250))
		a.Add(b, 1000, 130, 0)
		truth[b] = false
	}
	pts, err := Sweep(a, truth, nil, ThresholdRange(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 100 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.Threshold >= 0.1 && p.Threshold <= 0.9 {
			if f := p.ByCount.F1(); f < 0.99 {
				t.Errorf("F1 at threshold %.2f = %.3f, want ~1 (stable plateau)", p.Threshold, f)
			}
		}
	}
	// Beyond the cellular ratio level, recall collapses.
	last := pts[len(pts)-1]
	if last.ByCount.Recall() > 0.01 {
		t.Errorf("recall at threshold 1.0 = %g, want ~0", last.ByCount.Recall())
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	a := beacon.NewAggregate()
	if _, err := Sweep(a, nil, nil, []float64{0}); err == nil {
		t.Error("invalid threshold accepted in sweep")
	}
}

func TestCalibrate(t *testing.T) {
	// Cellular at ratio ~0.7, fixed at ~0: every threshold in (0, 0.7]
	// achieves perfect F1; Calibrate must pick one of them (the lowest on
	// ties) and never a threshold above the cellular ratio.
	a := beacon.NewAggregate()
	truth := map[netaddr.Block]bool{}
	for i := 0; i < 30; i++ {
		b := netaddr.V4Block(40, 1, byte(i))
		a.Add(b, 500, 100, 70)
		truth[b] = true
	}
	for i := 0; i < 300; i++ {
		b := netaddr.V4Block(50, byte(i/250), byte(i%250))
		a.Add(b, 500, 100, 0)
		truth[b] = false
	}
	best, err := Calibrate(a, truth, nil, ThresholdRange(100), false)
	if err != nil {
		t.Fatal(err)
	}
	if best.ByCount.F1() < 0.999 {
		t.Errorf("calibrated F1 = %g", best.ByCount.F1())
	}
	if best.Threshold > 0.7 {
		t.Errorf("calibrated threshold %g above the cellular ratio", best.Threshold)
	}
	if best.Threshold != 0.01 {
		t.Errorf("tie should go to the lowest threshold, got %g", best.Threshold)
	}
	if _, err := Calibrate(a, truth, nil, nil, false); err == nil {
		t.Error("empty threshold list accepted")
	}
	if _, err := Calibrate(a, truth, nil, []float64{-1}, true); err == nil {
		t.Error("invalid threshold accepted")
	}
}

func TestThresholdRange(t *testing.T) {
	ths := ThresholdRange(4)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	for i := range want {
		if math.Abs(ths[i]-want[i]) > 1e-12 {
			t.Fatalf("ThresholdRange = %v", ths)
		}
	}
}

func TestRatiosAndBuckets(t *testing.T) {
	a := beacon.NewAggregate()
	a.Add(netaddr.V4Block(1, 1, 1), 10, 10, 0)  // 0.0
	a.Add(netaddr.V4Block(1, 1, 2), 10, 10, 5)  // 0.5
	a.Add(netaddr.V4Block(1, 1, 3), 10, 10, 10) // 1.0
	a.Add(netaddr.V6Block(0x111), 10, 10, 10)   // other family
	a.Add(netaddr.V4Block(1, 1, 4), 10, 0, 0)   // no API: excluded
	du := map[netaddr.Block]float64{
		netaddr.V4Block(1, 1, 1): 70,
		netaddr.V4Block(1, 1, 2): 20,
		netaddr.V4Block(1, 1, 3): 10,
	}
	samples := Ratios(a, netaddr.IPv4, func(b netaddr.Block) float64 { return du[b] })
	if len(samples) != 3 {
		t.Fatalf("samples = %d", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Ratio > samples[i].Ratio {
			t.Fatal("samples not sorted by ratio")
		}
	}
	counts, demands := BucketShares(samples, 0.1, 0.9)
	wantCounts := [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	wantDemand := [3]float64{0.7, 0.2, 0.1}
	for i := 0; i < 3; i++ {
		if math.Abs(counts[i]-wantCounts[i]) > 1e-9 {
			t.Errorf("count share[%d] = %g", i, counts[i])
		}
		if math.Abs(demands[i]-wantDemand[i]) > 1e-9 {
			t.Errorf("demand share[%d] = %g", i, demands[i])
		}
	}
	// v6 family query sees only the v6 block.
	if got := Ratios(a, netaddr.IPv6, nil); len(got) != 1 {
		t.Errorf("v6 samples = %d", len(got))
	}
	// Empty input.
	c0, d0 := BucketShares(nil, 0.1, 0.9)
	if c0 != [3]float64{} || d0 != [3]float64{} {
		t.Error("empty BucketShares nonzero")
	}
}

// Property: confusion-matrix identities hold under Evaluate — TP+FN equals
// the number of truth positives, FP+TN the negatives.
func TestEvaluateIdentityProperty(t *testing.T) {
	f := func(flags []bool, detFlags []bool) bool {
		truth := map[netaddr.Block]bool{}
		det := make(netaddr.Set)
		for i, cell := range flags {
			b := netaddr.MakeBlock(netaddr.IPv4, uint64(i))
			truth[b] = cell
			if i < len(detFlags) && detFlags[i] {
				det.Add(b)
			}
		}
		m := Evaluate(det, truth, nil)
		pos, neg := 0, 0
		for _, cell := range truth {
			if cell {
				pos++
			} else {
				neg++
			}
		}
		return m.TP+m.FN == float64(pos) && m.FP+m.TN == float64(neg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: F1 is always within [0,1] and 0 only when TP is 0.
func TestF1BoundsProperty(t *testing.T) {
	f := func(tp, fp, tn, fn uint16) bool {
		m := Confusion{TP: float64(tp), FP: float64(fp), TN: float64(tn), FN: float64(fn)}
		f1 := m.F1()
		if f1 < 0 || f1 > 1 {
			return false
		}
		if tp == 0 && f1 != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapWalkClassify is Classify as it ran over a map of per-block tallies.
func mapWalkClassify(c Classifier, agg *beacon.Aggregate) netaddr.Set {
	perBlock := make(map[netaddr.Block]beacon.Counts, agg.Blocks())
	for i := range agg.Blocks() {
		b, n := agg.At(i)
		perBlock[b] = n
	}
	out := make(netaddr.Set)
	for b, n := range perBlock {
		if n.API > 0 && float64(n.Cell)/float64(n.API) >= c.threshold {
			out.Add(b)
		}
	}
	return out
}

// TestClassifyMatchesMapWalkOracle runs Classify over the BEACON of
// Scale-0.005 worlds of seeds 1–3, generated at Parallelism 1 and 8: as
// Generate emits it, as an arrival-order copy, and generated over a block
// list that names every 97th block twice. Each must equal the map walk.
func TestClassifyMatchesMapWalkOracle(t *testing.T) {
	c, err := New(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, p := range []int{1, 8} {
			wcfg := world.DefaultConfig()
			wcfg.Seed, wcfg.Scale, wcfg.Parallelism = seed, 0.005, p
			w, err := world.Generate(wcfg)
			if err != nil {
				t.Fatal(err)
			}
			repeated := *w
			repeated.Blocks = slices.Clone(w.Blocks)
			for i := 0; i < len(w.Blocks); i += 97 {
				repeated.Blocks = append(repeated.Blocks, w.Blocks[i])
			}
			bcfg := beacon.DefaultGenConfig()
			bcfg.Seed, bcfg.Parallelism = seed, p
			agg, err := beacon.Generate(w, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			twice, err := beacon.Generate(&repeated, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			arrival := beacon.NewAggregate()
			for i := agg.Blocks() - 1; i >= 0; i-- {
				b, n := agg.At(i)
				arrival.AddCounts(b, n)
			}
			for name, a := range map[string]*beacon.Aggregate{"canonical": agg, "arrival order": arrival, "repeated blocks": twice} {
				want := mapWalkClassify(c, a)
				if want.Len() == 0 {
					t.Fatalf("seed %d %s: nothing detected", seed, name)
				}
				if got := c.Classify(a); !maps.Equal(got, want) {
					t.Errorf("seed %d Parallelism %d %s: %d blocks detected, want %d",
						seed, p, name, got.Len(), want.Len())
				}
			}
		}
	}
}
