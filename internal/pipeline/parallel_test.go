package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cellspot/internal/aschar"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
)

// The equivalence suite: the serial path (Parallelism: 1) is the oracle,
// and every parallel run must reproduce it bit-for-bit. Seeds {1,2,3} ×
// scales {0.005, 0.01} cover distinct worlds; Parallelism: 8 exceeds the
// shard worker cap on most runners, exercising work stealing and merge
// ordering regardless of GOMAXPROCS.

// equivCase is one seed×scale cell of the equivalence matrix.
type equivCase struct {
	seed  uint64
	scale float64
}

func equivCases(t *testing.T) []equivCase {
	var out []equivCase
	for _, seed := range []uint64{1, 2, 3} {
		for _, scale := range []float64{0.005, 0.01} {
			if testing.Short() && !(seed == 1 && scale == 0.005) {
				continue
			}
			out = append(out, equivCase{seed: seed, scale: scale})
		}
	}
	return out
}

func equivConfig(seed uint64, scale float64, parallelism int) Config {
	cfg := DefaultConfig()
	cfg.World.Seed = seed
	cfg.World.Scale = scale
	cfg.Beacon.Seed = seed + 1
	cfg.Demand.Seed = seed + 2
	cfg.Parallelism = parallelism
	// Metrics on for every equivalence run: recording per-stage timings and
	// par counters must not perturb any output the suite compares.
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

func diffSets(t *testing.T, name string, a, b netaddr.Set) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Errorf("%s: size %d (serial) vs %d (parallel)", name, a.Len(), b.Len())
	}
	for blk := range a.All() {
		if !b.Has(blk) {
			t.Errorf("%s: %v detected serially but not in parallel", name, blk)
			return
		}
	}
	for blk := range b.All() {
		if !a.Has(blk) {
			t.Errorf("%s: %v detected in parallel but not serially", name, blk)
			return
		}
	}
}

func diffFilter(t *testing.T, a, b aschar.FilterResult) {
	t.Helper()
	stages := []struct {
		name string
		s, p []uint32
	}{
		{"Tagged", a.Tagged, b.Tagged},
		{"AfterRule1", a.AfterRule1, b.AfterRule1},
		{"AfterRule2", a.AfterRule2, b.AfterRule2},
		{"AfterRule3", a.AfterRule3, b.AfterRule3},
	}
	for _, st := range stages {
		if len(st.s) != len(st.p) {
			t.Errorf("filter %s: %d ASes (serial) vs %d (parallel)", st.name, len(st.s), len(st.p))
			continue
		}
		for i := range st.s {
			if st.s[i] != st.p[i] {
				t.Errorf("filter %s[%d]: AS%d (serial) vs AS%d (parallel)", st.name, i, st.s[i], st.p[i])
				break
			}
		}
	}
}

func diffMetrics(t *testing.T, id string, a, b map[string]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: metric count %d (serial) vs %d (parallel)", id, len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			t.Errorf("%s: metric %q missing from parallel run", id, k)
			continue
		}
		if va != vb {
			t.Errorf("%s: metric %q = %v (serial) vs %v (parallel)", id, k, va, vb)
		}
	}
}

// bitDiff returns the path of the first place where a and b differ, or ""
// when they hold the same values. It follows pointers, matches map
// entries by key and compares floats by their bits, so it is stricter
// than reflect.DeepEqual: -0 differs from +0, and a NaN equals itself.
func bitDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side"
			}
			return ""
		}
		return bitDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries vs %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			k := fmt.Sprintf("%s[%v]", path, it.Key())
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return k + ": missing on one side"
			}
			if d := bitDiff(k, it.Value(), bv); d != "" {
				return d
			}
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %v", path, a.Kind())
	}
	return ""
}

func TestBitDiff(t *testing.T) {
	type row struct {
		N  int
		DU float64
	}
	nan := math.NaN()
	same := []struct{ a, b any }{
		{map[uint32]*row{1: {2, 0.5}}, map[uint32]*row{1: {2, 0.5}}},
		{[]float64{nan}, []float64{nan}},
		{(*row)(nil), (*row)(nil)},
	}
	for _, c := range same {
		if d := bitDiff("v", reflect.ValueOf(c.a), reflect.ValueOf(c.b)); d != "" {
			t.Errorf("%v vs %v: %s", c.a, c.b, d)
		}
	}
	differ := []struct{ a, b any }{
		{map[uint32]*row{1: {2, 0.5}}, map[uint32]*row{1: {2, 0.25}}},
		{map[uint32]*row{1: {2, 0.5}}, map[uint32]*row{3: {2, 0.5}}},
		{[]float64{0}, []float64{math.Copysign(0, -1)}},
		{[]row{{1, 0}}, []row{{2, 0}}},
		{&row{}, (*row)(nil)},
		{map[string]float64{"a": 1}, map[string]float64{"a": 1, "b": 1}},
	}
	for _, c := range differ {
		if d := bitDiff("v", reflect.ValueOf(c.a), reflect.ValueOf(c.b)); d == "" {
			t.Errorf("%v vs %v: no difference reported", c.a, c.b)
		}
	}
}

// diffAnalysis compares every output Analyze writes, floats bitwise. The
// branches that write them run on separate goroutines in a parallel run,
// so each must match the serial oracle on its own.
func diffAnalysis(t *testing.T, serial, parallel *Result) {
	t.Helper()
	outputs := []struct {
		name string
		s, p any
	}{
		{"Stats", serial.Stats, parallel.Stats},
		{"Networks", serial.Networks, parallel.Networks},
		{"Macro", serial.Macro, parallel.Macro},
		{"RDNS", serial.RDNS, parallel.RDNS},
		{"ResolverUsage", serial.ResolverUsage, parallel.ResolverUsage},
		{"PublicDNS", serial.PublicDNS, parallel.PublicDNS},
	}
	for _, o := range outputs {
		if d := bitDiff(o.name, reflect.ValueOf(o.s), reflect.ValueOf(o.p)); d != "" {
			t.Errorf("serial vs parallel: %s", d)
		}
	}
}

// globalExperiments are the experiments that draw on the global run alone;
// caseExperiments need the three-carrier case study.
var globalExperiments = []string{"T1", "T2", "F1", "F2", "T4", "T5", "T6", "F4", "F5", "F7", "T7", "F9", "F10", "T8", "F11", "F12", "X2"}
var caseExperiments = []string{"F3", "T3", "F6", "F8"}

func TestParallelSerialEquivalence(t *testing.T) {
	for _, c := range equivCases(t) {
		t.Run(fmt.Sprintf("seed%d_scale%g", c.seed, c.scale), func(t *testing.T) {
			serial, err := Run(equivConfig(c.seed, c.scale, 1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Run(equivConfig(c.seed, c.scale, 8))
			if err != nil {
				t.Fatal(err)
			}

			// World ground truth must match before the pipeline's outputs can.
			if len(serial.World.Blocks) != len(parallel.World.Blocks) {
				t.Fatalf("world blocks: %d (serial) vs %d (parallel)", len(serial.World.Blocks), len(parallel.World.Blocks))
			}
			for i := range serial.World.Blocks {
				s, p := serial.World.Blocks[i], parallel.World.Blocks[i]
				if s.Block != p.Block || s.ASN != p.ASN || s.Demand != p.Demand ||
					s.Cellular != p.Cellular || s.CellLabelProb != p.CellLabelProb ||
					s.HitsOverride != p.HitsOverride {
					t.Fatalf("world block %d differs: %+v vs %+v", i, s, p)
				}
			}

			// BEACON tallies, block by block.
			if serial.Beacon.Blocks() != parallel.Beacon.Blocks() {
				t.Errorf("beacon blocks: %d vs %d", serial.Beacon.Blocks(), parallel.Beacon.Blocks())
			}
			for i := range serial.Beacon.Blocks() {
				blk, sc := serial.Beacon.At(i)
				if pc, ok := parallel.Beacon.Get(blk); !ok || pc != sc {
					t.Fatalf("beacon counts for %v differ: %+v vs %+v", blk, sc, pc)
				}
			}

			// DEMAND datasets, block by block in canonical order.
			if serial.Demand.Blocks() != parallel.Demand.Blocks() {
				t.Errorf("demand blocks: %d vs %d", serial.Demand.Blocks(), parallel.Demand.Blocks())
			}
			serial.Demand.Each(func(blk netaddr.Block, du float64) {
				if got := parallel.Demand.DU(blk); got != du {
					t.Fatalf("demand for %v: %v vs %v", blk, du, got)
				}
			})

			diffSets(t, "Detected", serial.Detected, parallel.Detected)
			diffFilter(t, serial.Filter, parallel.Filter)
			diffAnalysis(t, serial, parallel)

			// The no-smoothing ablation redraws day 0 at each run's own
			// parallelism; the two draws must give the same AS churn.
			smS, err := AblationNoSmoothing(serial)
			if err != nil {
				t.Fatal(err)
			}
			smP, err := AblationNoSmoothing(parallel)
			if err != nil {
				t.Fatal(err)
			}
			if smS != smP {
				t.Errorf("AblationNoSmoothing: %+v (serial) vs %+v (parallel)", smS, smP)
			}

			// Experiment metrics: identical maps from both runs.
			envS := &Env{Cfg: serial.Config, global: serial}
			envP := &Env{Cfg: parallel.Config, global: parallel}
			for _, id := range globalExperiments {
				outS, err := RunExperiment(id, envS)
				if err != nil {
					t.Fatalf("%s (serial): %v", id, err)
				}
				outP, err := RunExperiment(id, envP)
				if err != nil {
					t.Fatalf("%s (parallel): %v", id, err)
				}
				diffMetrics(t, id, outS.Metrics, outP.Metrics)
			}
		})
	}
}

// TestParallelSerialEquivalenceCaseStudy covers the paper-scale validation
// world: its generation stays serial, but the BEACON/DEMAND/classify stages
// shard, so the case-study experiments must also be parallelism-invariant.
// The case study is scale-independent, so one scale per seed suffices.
func TestParallelSerialEquivalenceCaseStudy(t *testing.T) {
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			serial, err := RunCaseStudy(equivConfig(seed, 0.005, 1))
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := RunCaseStudy(equivConfig(seed, 0.005, 8))
			if err != nil {
				t.Fatal(err)
			}
			diffSets(t, "Detected", serial.Detected, parallel.Detected)
			diffFilter(t, serial.Filter, parallel.Filter)
			diffAnalysis(t, serial, parallel)

			envS := &Env{Cfg: serial.Config, caseStudy: serial}
			envP := &Env{Cfg: parallel.Config, caseStudy: parallel}
			for _, id := range caseExperiments {
				outS, err := RunExperiment(id, envS)
				if err != nil {
					t.Fatalf("%s (serial): %v", id, err)
				}
				outP, err := RunExperiment(id, envP)
				if err != nil {
					t.Fatalf("%s (parallel): %v", id, err)
				}
				diffMetrics(t, id, outS.Metrics, outP.Metrics)
			}
		})
	}
}
