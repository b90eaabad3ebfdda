package cellspot

// One benchmark per table and figure of the paper, plus ablation benches
// for the design choices DESIGN.md calls out. Each benchmark measures the
// cost of regenerating its artifact from cached pipeline runs and reports
// the artifact's headline metric alongside the paper's value via
// b.ReportMetric, so `go test -bench=.` doubles as the reproduction run.

import (
	"sync"
	"testing"

	"cellspot/internal/pipeline"
)

// benchEnv is shared across benchmarks: world generation dominates
// end-to-end cost and would otherwise swamp per-experiment timings.
var (
	benchOnce sync.Once
	benchE    *Env
)

func benchSetup(b *testing.B) *Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.World.Scale = 0.01
		benchE = NewEnv(cfg)
	})
	return benchE
}

// benchExperiment runs one experiment per iteration and reports its
// measured-vs-paper metrics once.
func benchExperiment(b *testing.B, id string, keys ...string) {
	env := benchSetup(b)
	// Materialize the pipeline runs outside the timed region.
	if _, err := pipeline.RunExperiment(id, env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var out *Experiment
	for i := 0; i < b.N; i++ {
		var err error
		out, err = pipeline.RunExperiment(id, env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, k := range keys {
		if v, ok := out.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
		if v, ok := out.Paper[k]; ok {
			b.ReportMetric(v, "paper_"+k)
		}
	}
}

func BenchmarkTable1PriorWork(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkTable2DatasetSizes(b *testing.B) {
	benchExperiment(b, "T2", "block_coverage", "demand_coverage")
}

func BenchmarkFigure1NetinfoPrevalence(b *testing.B) {
	benchExperiment(b, "F1", "dec2016_share", "google_share")
}

func BenchmarkFigure2RatioCDF(b *testing.B) {
	benchExperiment(b, "F2", "v4_count_high", "v4_demand_high")
}

func BenchmarkFigure3ThresholdSweep(b *testing.B) {
	benchExperiment(b, "F3", "plateau_min_f1_A", "plateau_min_f1_B", "plateau_min_f1_C")
}

func BenchmarkTable3CarrierValidation(b *testing.B) {
	benchExperiment(b, "T3", "A_CIDR_precision", "A_CIDR_recall", "A_Demand_recall")
}

func BenchmarkTable4SubnetCensus(b *testing.B) {
	benchExperiment(b, "T4", "global_pct_active_v4", "global_pct_active_v6")
}

func BenchmarkTable5ASFiltering(b *testing.B) {
	benchExperiment(b, "T5", "tagged", "final")
}

func BenchmarkTable6ASCensus(b *testing.B) {
	benchExperiment(b, "T6", "ases_AS", "ases_EU")
}

func BenchmarkFigure4PerASDistributions(b *testing.B) {
	benchExperiment(b, "F4", "tiny_as_fraction")
}

func BenchmarkFigure5MixedCDF(b *testing.B) {
	benchExperiment(b, "F5", "median_gap")
}

func BenchmarkFigure6OperatorBreakdown(b *testing.B) {
	benchExperiment(b, "F6", "dedicated_zero_ratio_frac")
}

func BenchmarkFigure7RankedASDemand(b *testing.B) {
	benchExperiment(b, "F7", "top10_share")
}

func BenchmarkTable7TopASes(b *testing.B) {
	benchExperiment(b, "T7", "rank1_share", "top10_share")
}

func BenchmarkFigure8SubnetConcentration(b *testing.B) {
	benchExperiment(b, "F8", "top25_cell_share", "cell_blocks_993")
}

func BenchmarkFigure9ResolverSharing(b *testing.B) {
	benchExperiment(b, "F9", "shared_fraction", "median_shared_cell_fraction")
}

func BenchmarkFigure10PublicDNS(b *testing.B) {
	benchExperiment(b, "F10", "public_share_US1", "public_share_DZ1")
}

func BenchmarkTable8ContinentStats(b *testing.B) {
	benchExperiment(b, "T8", "global_cellfrac")
}

func BenchmarkFigure11CountryPDF(b *testing.B) {
	benchExperiment(b, "F11", "us_share", "top5_share")
}

func BenchmarkFigure12DemandScatter(b *testing.B) {
	benchExperiment(b, "F12", "cfd_US", "cfd_GH")
}

// BenchmarkExtensionEvolution reruns the temporal-evolution extension
// (X1, the paper's §8 future work).
func BenchmarkExtensionEvolution(b *testing.B) {
	benchExperiment(b, "X1", "mean_jaccard", "mean_top_overlap")
}

// BenchmarkExtensionCellMap rebuilds the publishable cellular-map artifact
// (X2) including CIDR aggregation and serialization.
func BenchmarkExtensionCellMap(b *testing.B) {
	benchExperiment(b, "X2", "published_prefixes", "blocks_per_prefix", "demand_coverage")
}

// BenchmarkEndToEndPipeline measures a complete run — world generation,
// both datasets, classification and every analysis — at a reduced scale.
func BenchmarkEndToEndPipeline(b *testing.B) {
	cfg := DefaultConfig()
	cfg.World.Scale = 0.002
	cfg.Beacon.TotalHits = 3_000_000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineParallel compares the serial oracle path against the
// sharded path at every stage (world, BEACON, DEMAND, classify). Results
// are bit-identical by construction — the equivalence suite in
// internal/pipeline asserts it — so this measures pure scheduling cost.
func BenchmarkPipelineParallel(b *testing.B) {
	for _, bc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"gomaxprocs", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.World.Scale = 0.01
			cfg.Parallelism = bc.parallelism
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

func benchGlobal(b *testing.B) *Result {
	b.Helper()
	env := benchSetup(b)
	r, err := env.Global()
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationASNOnly shows the precision collapse of AS-granularity
// identification on mixed networks (the paper's core argument for
// prefix-level identification).
func BenchmarkAblationASNOnly(b *testing.B) {
	r := benchGlobal(b)
	var res pipeline.ASNOnlyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = pipeline.AblationASNOnly(r)
	}
	b.StopTimer()
	b.ReportMetric(res.PrefixLevel.Precision(), "prefix_precision")
	b.ReportMetric(res.ASNLevel.Precision(), "asn_precision")
	b.ReportMetric(res.ASNLevel.Recall(), "asn_recall")
}

// BenchmarkAblationThreshold replays classification at 0.1 / 0.5 / 0.9.
func BenchmarkAblationThreshold(b *testing.B) {
	r := benchGlobal(b)
	var res []pipeline.ThresholdResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pipeline.AblationThreshold(r, []float64{0.1, 0.5, 0.9})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, tr := range res {
		switch tr.Threshold {
		case 0.1:
			b.ReportMetric(tr.ByDemand.F1(), "f1_at_0.1")
		case 0.5:
			b.ReportMetric(tr.ByDemand.F1(), "f1_at_0.5")
		case 0.9:
			b.ReportMetric(tr.ByDemand.F1(), "f1_at_0.9")
		}
	}
}

// BenchmarkAblationNoASFilters counts the straw-man false positives the
// three filter rules exist to remove.
func BenchmarkAblationNoASFilters(b *testing.B) {
	r := benchGlobal(b)
	var res pipeline.NoFilterResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = pipeline.AblationNoASFilters(r)
	}
	b.StopTimer()
	b.ReportMetric(float64(res.FalseASes), "false_ases_tagged")
	b.ReportMetric(float64(res.SurvivingFalse), "false_ases_surviving")
}

// BenchmarkAblationNoSmoothing measures AS-set churn without the paper's
// 7-day demand smoothing. Each iteration includes the DEMAND draw that
// demand.Day redoes to get day 0.
func BenchmarkAblationNoSmoothing(b *testing.B) {
	r := benchGlobal(b)
	var res pipeline.SmoothingResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = pipeline.AblationNoSmoothing(r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(res.Flipped), "flipped_ases")
	b.ReportMetric(float64(res.SmoothedASes), "smoothed_ases")
}
