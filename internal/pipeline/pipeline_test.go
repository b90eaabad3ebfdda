package pipeline

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"cellspot/internal/classify"
	"cellspot/internal/world"
)

// testConfig returns a reduced-scale configuration for pipeline tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.World.Scale = 0.004
	cfg.Beacon.TotalHits = 6_000_000
	return cfg
}

var cachedRun *Result

func testRun(t testing.TB) *Result {
	t.Helper()
	if cachedRun == nil {
		r, err := Run(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedRun = r
	}
	return cachedRun
}

func TestRunHeadlineNumbers(t *testing.T) {
	r := testRun(t)
	// The paper's headline: cellular demand is 16.2% of global demand.
	frac := r.Macro.GlobalCellFrac()
	if frac < 0.14 || frac > 0.19 {
		t.Errorf("global cellular fraction = %.4f, want near 0.162", frac)
	}
	// 668 cellular ASes survive filtering.
	if n := len(r.Filter.AfterRule3); n < 600 || n > 740 {
		t.Errorf("final cellular ASes = %d, want near 668", n)
	}
	// A majority of cellular ASes are mixed, but mixed networks carry a
	// minority of cellular demand (paper: 58.6% of ASes, 32.7% of demand).
	mixed, mixedDU, totDU := 0, 0.0, 0.0
	for _, n := range r.Networks {
		if !n.Dedicated {
			mixed++
			mixedDU += n.CellDU
		}
		totDU += n.CellDU
	}
	mixedFrac := float64(mixed) / float64(len(r.Networks))
	if mixedFrac <= 0.5 || mixedFrac > 0.68 {
		t.Errorf("mixed AS fraction = %.3f, want majority near 0.586", mixedFrac)
	}
	if duFrac := mixedDU / totDU; duFrac < 0.2 || duFrac > 0.45 {
		t.Errorf("mixed demand share = %.3f, want near 0.327", duFrac)
	}
}

func TestRunSubnetAccuracy(t *testing.T) {
	r := testRun(t)
	byCount, byDemand := truthConfusion(r)
	// Demand-weighted detection is strong; count recall is intentionally
	// low (low-activity cellular blocks have no beacons).
	if p := byDemand.Precision(); p < 0.88 {
		t.Errorf("demand precision = %.3f", p)
	}
	if rec := byDemand.Recall(); rec < 0.85 {
		t.Errorf("demand recall = %.3f", rec)
	}
	if rec := byCount.Recall(); rec > 0.7 {
		t.Errorf("count recall = %.3f — low-activity FNs missing?", rec)
	}
}

// truthConfusion scores the subnet classifier against the whole world's
// ground truth (not just one carrier), by count and by demand.
func truthConfusion(r *Result) (byCount, byDemand classify.Confusion) {
	for _, bi := range r.World.Blocks {
		if bi.Demand <= 0 {
			continue // score active space, as the paper's carriers do
		}
		det := r.Detected.Has(bi.Block)
		byCount.Add(bi.Cellular, det, 1)
		byDemand.Add(bi.Cellular, det, r.Demand.DU(bi.Block))
	}
	return byCount, byDemand
}

func TestRunFilterFunnelShape(t *testing.T) {
	r := testRun(t)
	r1, r2, r3 := r.Filter.Removed()
	if r1 < r2 || r1 < r3 {
		t.Errorf("rule 1 should dominate the funnel: %d/%d/%d", r1, r2, r3)
	}
	if r1 < 300 {
		t.Errorf("rule 1 removed %d, want hundreds (strays)", r1)
	}
	if r3 < 35 || r3 > 70 {
		t.Errorf("rule 3 removed %d, want near 49 (proxies)", r3)
	}
	if len(r.Filter.Tagged) < 1000 {
		t.Errorf("straw-man tagged %d ASes, want >1000", len(r.Filter.Tagged))
	}
}

func TestRunRDNSCorroboration(t *testing.T) {
	r := testRun(t)
	// Every rule-3 removal should look proxy-like in reverse DNS, and no
	// surviving cellular AS should (paper §5's PTR confirmation).
	removed := map[uint32]bool{}
	for _, a := range r.Filter.AfterRule2 {
		removed[a] = true
	}
	for _, a := range r.Filter.AfterRule3 {
		delete(removed, a)
	}
	if len(removed) == 0 {
		t.Fatal("rule 3 removed nothing")
	}
	confirmed := 0
	for a := range removed {
		if c := r.RDNS[a]; c != nil && c.ProxySuspect() {
			confirmed++
		}
	}
	if confirmed < len(removed)*9/10 {
		t.Errorf("rDNS confirmed only %d of %d removals", confirmed, len(removed))
	}
	for _, a := range r.Filter.AfterRule3 {
		if c := r.RDNS[a]; c != nil && c.ProxySuspect() {
			t.Errorf("surviving AS%d looks proxy-like in rDNS", a)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Threshold = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero threshold accepted")
	}
	cfg = testConfig()
	cfg.World.Scale = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative scale accepted")
	}
	cfg = testConfig()
	cfg.Beacon.TotalHits = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero beacon hits accepted")
	}
	cfg = testConfig()
	cfg.Demand.Days = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero demand days accepted")
	}
}

func TestReclassifyThreshold(t *testing.T) {
	r := testRun(t)
	base, baseFinal := r.Detected.Len(), len(r.Filter.AfterRule3)
	if err := r.Classify(0.95); err != nil {
		t.Fatal(err)
	}
	strict := r.Detected.Len()
	if strict >= base {
		t.Errorf("stricter threshold found more blocks: %d vs %d", strict, base)
	}
	// Every stage downstream of classification follows the new set: the
	// recorded threshold, the AS-filter verdict and the published map equal
	// a fresh run at 0.95.
	cfg := r.Config
	cfg.Threshold = 0.95
	fresh, err := RunOnWorld(r.World, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Filter.AfterRule3) == baseFinal {
		t.Fatalf("threshold 0.95 keeps all %d final ASes; the check is vacuous", baseFinal)
	}
	if r.Config.Threshold != 0.95 {
		t.Errorf("Config.Threshold = %g after Classify(0.95)", r.Config.Threshold)
	}
	if !reflect.DeepEqual(r.Filter, fresh.Filter) {
		t.Errorf("Filter after Classify(0.95) keeps %d final ASes, a fresh run at 0.95 %d",
			len(r.Filter.AfterRule3), len(fresh.Filter.AfterRule3))
	}
	if !bytes.Equal(resultMapBytes(t, r), resultMapBytes(t, fresh)) {
		t.Error("map after Classify(0.95) differs from a fresh run's at 0.95")
	}
	if err := r.Classify(0.1); err != nil {
		t.Fatal(err)
	}
	loose := r.Detected.Len()
	if loose <= base {
		t.Errorf("looser threshold found fewer blocks: %d vs %d", loose, base)
	}
	// Restore the default for other tests sharing the cached run.
	if err := r.Classify(classify.DefaultThreshold); err != nil {
		t.Fatal(err)
	}
	if r.Detected.Len() != base {
		t.Error("reclassification not reproducible")
	}
}

func TestRunCaseStudyCarriers(t *testing.T) {
	cfg := DefaultConfig()
	r, err := RunCaseStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Table 3 reproduction bands.
	truthA := r.World.CarrierTruth(r.World.CarrierA, false)
	mA := classify.Evaluate(r.Detected, truthA, nil)
	if p := mA.Precision(); p < 0.9 {
		t.Errorf("carrier A precision = %.3f, want ~0.97", p)
	}
	if rec := mA.Recall(); rec < 0.07 || rec > 0.16 {
		t.Errorf("carrier A CIDR recall = %.3f, want ~0.10", rec)
	}
	dA := classify.Evaluate(r.Detected, truthA, r.Demand.DU)
	if rec := dA.Recall(); rec < 0.75 || rec > 0.9 {
		t.Errorf("carrier A demand recall = %.3f, want ~0.82", rec)
	}
	truthB := r.World.CarrierTruth(r.World.CarrierB, false)
	mB := classify.Evaluate(r.Detected, truthB, nil)
	if rec := mB.Recall(); rec < 0.96 {
		t.Errorf("carrier B recall = %.3f, want ~0.99", rec)
	}
	if mB.FP != 0 {
		t.Errorf("carrier B has %v false positives, want 0 (truth has no fixed blocks)", mB.FP)
	}
}

func TestResolverASMapping(t *testing.T) {
	r := testRun(t)
	found := false
	for _, res := range r.World.Resolvers {
		a, ok := r.World.ResolverAS(res.Addr)
		if !ok || a != res.ASN {
			t.Fatalf("resolver %v mapped to %d,%v want %d", res.Addr, a, ok, res.ASN)
		}
		found = true
	}
	if !found {
		t.Fatal("no resolvers")
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	env := NewEnv(testConfig())
	for _, id := range ExperimentIDs() {
		out, err := RunExperiment(id, env)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if out.ID != id || out.Text == "" {
			t.Errorf("%s: empty output", id)
		}
		if id != "T1" && len(out.Metrics) == 0 {
			t.Errorf("%s: no metrics", id)
		}
		for k, v := range out.Metrics {
			if v != v { // NaN
				t.Errorf("%s: metric %s is NaN", id, k)
			}
		}
		for k := range out.Paper {
			if _, ok := out.Metrics[k]; !ok {
				t.Errorf("%s: paper key %s has no measured counterpart", id, k)
			}
		}
	}
	if _, err := RunExperiment("T99", env); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentHeadlineBands(t *testing.T) {
	env := NewEnv(testConfig())
	type band struct {
		id, key string
		lo, hi  float64
	}
	bands := []band{
		{"T8", "global_cellfrac", 0.14, 0.19},
		{"T5", "final", 600, 740},
		{"T5", "removed3", 35, 70},
		{"F7", "top10_share", 0.30, 0.46},
		{"F9", "shared_fraction", 0.40, 0.70},
		{"F10", "public_share_DZ1", 0.75, 1.0},
		{"F12", "cfd_US", 0.13, 0.20},
		// Noise ASes do not scale with the world, so small test worlds
		// carry relatively more high-ratio noise blocks than paper scale.
		{"F2", "v4_count_high", 0.03, 0.12},
		{"F1", "dec2016_share", 0.10, 0.16},
	}
	for _, b := range bands {
		out, err := RunExperiment(b.id, env)
		if err != nil {
			t.Fatalf("%s: %v", b.id, err)
		}
		v, ok := out.Metrics[b.key]
		if !ok {
			t.Errorf("%s: missing metric %s", b.id, b.key)
			continue
		}
		if v < b.lo || v > b.hi {
			t.Errorf("%s %s = %.4f, want in [%g,%g]", b.id, b.key, v, b.lo, b.hi)
		}
	}
}

func TestPipelineDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.World.Scale = 0.002
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Detected.Len() != r2.Detected.Len() {
		t.Fatal("detection differs between identical runs")
	}
	if r1.Macro.GlobalCellFrac() != r2.Macro.GlobalCellFrac() {
		t.Error("macro stats differ between identical runs")
	}
	if len(r1.Filter.AfterRule3) != len(r2.Filter.AfterRule3) {
		t.Error("AS filtering differs between identical runs")
	}
}

func TestRunOnWorldReuse(t *testing.T) {
	cfg := testConfig()
	cfg.World.Scale = 0.002
	w, err := world.Generate(cfg.World)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RunOnWorld(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different beacon seed on the same world changes tallies but not the
	// broad outcome.
	cfg2 := cfg
	cfg2.Beacon.Seed = 777
	r2, err := RunOnWorld(w, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := r1.Detected.Len(), r2.Detected.Len()
	if d1 == 0 || d2 == 0 {
		t.Fatal("no detections")
	}
	diff := float64(d1-d2) / float64(d1)
	if diff < -0.1 || diff > 0.1 {
		t.Errorf("beacon reseed changed detections too much: %d vs %d", d1, d2)
	}
}

func TestExperimentTextMentionsPaper(t *testing.T) {
	env := NewEnv(testConfig())
	for _, id := range []string{"T3", "T5", "T8", "F8"} {
		out, err := RunExperiment(id, env)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(strings.ToLower(out.Text), "paper") {
			t.Errorf("%s output does not reference paper values", id)
		}
	}
}

// TestRunOnWorldErrorOrder: BEACON and DEMAND run as two branches, and a
// run with both configs bad reports BEACON's error at every Parallelism,
// as the serial order did; a bad DEMAND config alone reports DEMAND's.
func TestRunOnWorldErrorOrder(t *testing.T) {
	cfg := testConfig()
	cfg.World.Scale = 0.002
	w, err := world.Generate(cfg.World)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 8} {
		both := cfg
		both.Parallelism = p
		both.Beacon.TotalHits = 0
		both.Demand.Days = 0
		if _, err := RunOnWorld(w, both); err == nil || !strings.HasPrefix(err.Error(), "pipeline: beacon:") {
			t.Errorf("Parallelism %d, both bad: error %v, want the BEACON error", p, err)
		}
		dem := cfg
		dem.Parallelism = p
		dem.Demand.Days = 0
		if _, err := RunOnWorld(w, dem); err == nil || !strings.HasPrefix(err.Error(), "pipeline: demand:") {
			t.Errorf("Parallelism %d, DEMAND bad: error %v, want the DEMAND error", p, err)
		}
	}
}
