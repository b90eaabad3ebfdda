package pipeline

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cellspot/internal/aschar"
	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/dnsmap"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
	"cellspot/internal/netinfo"
	"cellspot/internal/report"
	"cellspot/internal/stats"
	"cellspot/internal/world"
)

// experimentF1 reproduces Fig 1: the Network Information API's share of
// beacon hits by month and browser, cross-checked against the generated
// December 2016 BEACON aggregate.
func experimentF1(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	s := report.NewSeries("Fig 1 — Network Information API share of beacon hits",
		"month_index", "total", "chrome_mobile", "android_webkit")
	cellFrac := r.Macro.GlobalCellFrac()
	var dec16 float64
	for m := (netinfo.Month{Year: 2015, Mon: 9}); m.Index() <= (netinfo.Month{Year: 2017, Mon: 6}).Index(); m = m.Next() {
		total, byBrowser := netinfo.ExpectedAPIShare(m, cellFrac)
		s.MustAdd(float64(m.Index()), total, byBrowser[netinfo.ChromeMobile], byBrowser[netinfo.AndroidWebKit])
		if m == netinfo.December2016 {
			dec16 = total
		}
	}
	tot := r.Beacon.Totals()
	measured := float64(tot.API) / float64(tot.Hits)

	// Cross-check the analytic curve by actually generating BEACON
	// totals at sampled months (reduced volume): the measured shares must
	// climb with the model.
	sampled := report.NewSeries("Fig 1 — measured API share at sampled months",
		"month_index", "measured_share")
	prevShare := -1.0
	monotone := true
	for _, m := range []netinfo.Month{{Year: 2015, Mon: 10}, {Year: 2016, Mon: 5},
		{Year: 2016, Mon: 12}, {Year: 2017, Mon: 6}} {
		bcfg := r.Config.Beacon
		bcfg.TotalHits = max(bcfg.TotalHits/10, 100_000)
		bcfg.Month = m
		t, err := beacon.GenerateTotals(r.World, bcfg)
		if err != nil {
			return nil, err
		}
		share := float64(t.API) / float64(t.Hits)
		sampled.MustAdd(float64(m.Index()), share)
		if share < prevShare {
			monotone = false
		}
		prevShare = share
	}
	_, byBrowser := netinfo.ExpectedAPIShare(netinfo.December2016, cellFrac)
	google := byBrowser[netinfo.ChromeMobile] + byBrowser[netinfo.AndroidWebKit] + byBrowser[netinfo.ChromeDesktop]
	jun17, _ := netinfo.ExpectedAPIShare(netinfo.Month{Year: 2017, Mon: 6}, cellFrac)

	var sb strings.Builder
	if err := s.Render(&sb, 12); err != nil {
		return nil, err
	}
	if err := sampled.Render(&sb, 0); err != nil {
		return nil, err
	}
	if !monotone {
		sb.WriteString("WARNING: measured monthly shares are not monotone.\n")
	}
	fmt.Fprintf(&sb, "Dec 2016 API share: model %s, measured from BEACON %s (paper: 13.2%%).\n",
		report.Pct(dec16, 1), report.Pct(measured, 1))
	fmt.Fprintf(&sb, "Google browsers' share of enabled hits: %s (paper: 96.7%%). Jun 2017 share: %s (paper: ~15%%).\n",
		report.Pct(google/dec16, 1), report.Pct(jun17, 1))
	return &Output{ID: "F1", Title: "API prevalence timeline", Text: sb.String(),
		Metrics: map[string]float64{
			"dec2016_share":   measured,
			"jun2017_share":   jun17,
			"google_share":    google / dec16,
			"growth_monotone": b2f(monotone),
		},
		Paper: map[string]float64{
			"dec2016_share": 0.132, "jun2017_share": 0.15, "google_share": 0.967,
		},
	}, nil
}

// experimentF2 reproduces Fig 2: CDFs of cellular ratios across subnets and
// demand, for IPv4 and IPv6, with the paper's three-bucket summary.
func experimentF2(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	metrics := map[string]float64{}
	paper := map[string]float64{
		"v4_count_low": 0.913, "v4_count_mid": 0.029, "v4_count_high": 0.058,
		"v6_count_low": 0.987, "v6_count_high": 0.012,
		"v4_demand_low": 0.80, "v4_demand_mid": 0.069, "v4_demand_high": 0.131,
	}
	for _, fam := range []netaddr.Family{netaddr.IPv4, netaddr.IPv6} {
		samples := classify.Ratios(r.Beacon, fam, r.Demand.DU)
		ratios := make([]float64, len(samples))
		weights := make([]float64, len(samples))
		for i, s := range samples {
			ratios[i] = s.Ratio
			weights[i] = s.DU
		}
		counts, demands := classify.BucketShares(samples, 0.1, 0.9)
		key := fam.String()
		metrics[key+"_count_low"] = counts[0]
		metrics[key+"_count_mid"] = counts[1]
		metrics[key+"_count_high"] = counts[2]
		metrics[key+"_demand_low"] = demands[0]
		metrics[key+"_demand_mid"] = demands[1]
		metrics[key+"_demand_high"] = demands[2]

		cdf := ecdfSeries(fmt.Sprintf("Fig 2 — cellular-ratio CDF (%s subnets)", key),
			stats.NewECDF(ratios), 21)
		if err := cdf.Render(&sb, 0); err != nil {
			return nil, err
		}
		wcdf, err := stats.NewWeightedECDF(ratios, weights)
		if err != nil {
			return nil, err
		}
		dcdf := ecdfSeries(fmt.Sprintf("Fig 2 — cellular-ratio CDF (%s demand-weighted)", key), wcdf, 21)
		if err := dcdf.Render(&sb, 0); err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "%s buckets (<0.1 / mid / >0.9): subnets %s/%s/%s, demand %s/%s/%s\n\n",
			key, report.Pct(counts[0], 1), report.Pct(counts[1], 1), report.Pct(counts[2], 1),
			report.Pct(demands[0], 1), report.Pct(demands[1], 1), report.Pct(demands[2], 1))
	}
	sb.WriteString("Paper: 91.3% of /24 and 98.7% of /48 below 0.1; 5.8% of /24 and 1.2% of /48 above 0.9;\n" +
		"IPv4 demand 80% below 0.1, 6.9% intermediate, 13.1% above 0.9.\n")
	// Label confidence: the share of API-visible blocks whose Wilson
	// interval clears the 0.5 threshold entirely.
	tallies := make(map[int][2]int, r.Beacon.Blocks())
	for i := range r.Beacon.Blocks() {
		_, c := r.Beacon.At(i)
		tallies[i] = [2]int{c.Cell, c.API}
	}
	confident := classify.ConfidentFraction(tallies, r.Config.Threshold, classify.Z95())
	fmt.Fprintf(&sb, "Labels statistically settled at 95%% confidence: %s of API-visible blocks.\n",
		report.Pct(confident, 1))
	metrics["confident_fraction"] = confident
	return &Output{ID: "F2", Title: "Cellular ratio distributions", Text: sb.String(),
		Metrics: metrics, Paper: paper}, nil
}

// b2f converts a bool to a 0/1 metric.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// carrierCases returns the three validation carriers of the case study.
func carrierCases(r *Result) []struct {
	Name string
	Op   *world.Operator
} {
	return []struct {
		Name string
		Op   *world.Operator
	}{
		{"Carrier A (mixed EU)", r.World.CarrierA},
		{"Carrier B (dedicated US)", r.World.CarrierB},
		{"Carrier C (mixed ME)", r.World.CarrierC},
	}
}

// experimentF3 reproduces Fig 3: demand-weighted F1 across thresholds for
// the three carriers, checking the plateau the paper reports.
func experimentF3(env *Env) (*Output, error) {
	r, err := env.Case()
	if err != nil {
		return nil, err
	}
	s := report.NewSeries("Fig 3 — F1 score vs cellular-ratio threshold (demand-weighted)",
		"threshold", "carrierA", "carrierB", "carrierC")
	ths := classify.ThresholdRange(50)
	curves := make([][]classify.SweepPoint, 0, 3)
	for _, cc := range carrierCases(r) {
		truth := r.World.CarrierTruth(cc.Op, false)
		pts, err := classify.Sweep(r.Beacon, truth, r.Demand.DU, ths)
		if err != nil {
			return nil, err
		}
		curves = append(curves, pts)
	}
	metrics := map[string]float64{}
	for i := range ths {
		s.MustAdd(ths[i], curves[0][i].ByDemand.F1(), curves[1][i].ByDemand.F1(), curves[2][i].ByDemand.F1())
	}
	// Plateau: minimum F1 over thresholds in [0.1, 0.9].
	names := []string{"A", "B", "C"}
	for ci, pts := range curves {
		minF1 := 1.0
		for _, p := range pts {
			if p.Threshold >= 0.1 && p.Threshold <= 0.9 {
				if f := p.ByDemand.F1(); f < minF1 {
					minF1 = f
				}
			}
		}
		metrics["plateau_min_f1_"+names[ci]] = minF1
	}
	var sb strings.Builder
	if err := s.Render(&sb, 15); err != nil {
		return nil, err
	}
	sb.WriteString("Paper: accuracy is stable for all thresholds between 0.1 and 0.96.\n")
	return &Output{ID: "F3", Title: "Threshold sensitivity", Text: sb.String(),
		Metrics: metrics,
		Paper: map[string]float64{
			"plateau_min_f1_A": 0.85, "plateau_min_f1_B": 0.95, "plateau_min_f1_C": 0.9,
		},
	}, nil
}

// experimentT3 reproduces Table 3: per-carrier classification accuracy at
// the 0.5 threshold, by CIDR count and by demand.
func experimentT3(env *Env) (*Output, error) {
	r, err := env.Case()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 3 — Classification accuracy (threshold 0.5, paper-scale carriers)",
		"Carrier", "Mode", "TP", "FP", "TN", "FN", "Precision", "Recall", "F1")
	paperRows := map[string][2][7]float64{
		// TP, FP, TN, FN, P, R, F1
		"A": {{496, 16, 89553, 4626, 0.97, 0.10, 0.09 /* sic: paper prints 0.09 */}, {70.96, 0.142, 1306.36, 15.217, 0.99, 0.82, 0.9}},
		"B": {{2937, 0, 0, 35, 1.0, 0.99, 0.99}, {46.01, 0, 0, 0.016, 1.0, 0.99, 0.99}},
		"C": {{383, 5, 3049, 99, 0.98, 0.79, 0.88}, {10.79, 0.17, 42.85, 0.15, 0.98, 0.98, 0.98}},
	}
	metrics := map[string]float64{}
	paper := map[string]float64{}
	names := []string{"A", "B", "C"}
	for ci, cc := range carrierCases(r) {
		truth := r.World.CarrierTruth(cc.Op, false)
		byCount := classify.Evaluate(r.Detected, truth, nil)
		byDemand := classify.Evaluate(r.Detected, truth, r.Demand.DU)
		name := names[ci]
		for mi, m := range []classify.Confusion{byCount, byDemand} {
			mode := "CIDR"
			prec := 0
			if mi == 1 {
				mode = "Demand"
				prec = 2
			}
			t.Row(cc.Name, mode,
				report.F(m.TP, prec), report.F(m.FP, prec), report.F(m.TN, prec), report.F(m.FN, prec),
				report.F(m.Precision(), 2), report.F(m.Recall(), 2), report.F(m.F1(), 2))
			pv := paperRows[name][mi]
			t.Row("", "paper",
				report.F(pv[0], prec), report.F(pv[1], prec), report.F(pv[2], prec), report.F(pv[3], prec),
				report.F(pv[4], 2), report.F(pv[5], 2), report.F(pv[6], 2))
			key := name + "_" + mode
			metrics[key+"_precision"] = m.Precision()
			metrics[key+"_recall"] = m.Recall()
			paper[key+"_precision"] = pv[4]
			paper[key+"_recall"] = pv[5]
		}
	}
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	return &Output{ID: "T3", Title: "Carrier validation", Text: sb.String(),
		Metrics: metrics, Paper: paper}, nil
}

// experimentF4 reproduces Fig 4: distributions of cellular demand and
// beacon responses across the straw-man-tagged ASes.
func experimentF4(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	var cellDU, cellHits, totalHits []float64
	for _, a := range r.Filter.Tagged {
		s := r.Stats[a]
		cellDU = append(cellDU, s.CellDU)
		cellHits = append(cellHits, float64(s.CellHits))
		totalHits = append(totalHits, float64(s.Hits))
	}
	var sb strings.Builder
	duCDF := ecdfSeries("Fig 4a — per-AS cellular demand CDF (DU)", stats.NewECDF(cellDU), 15)
	if err := duCDF.Render(&sb, 0); err != nil {
		return nil, err
	}
	hitCDF := ecdfSeries("Fig 4b — per-AS cellular beacon hits CDF", stats.NewECDF(cellHits), 15)
	if err := hitCDF.Render(&sb, 0); err != nil {
		return nil, err
	}
	totCDF := ecdfSeries("Fig 4b — per-AS total beacon hits CDF", stats.NewECDF(totalHits), 15)
	if err := totCDF.Render(&sb, 0); err != nil {
		return nil, err
	}
	// Paper: ~40% of tagged ASes have 6+ orders of magnitude less demand
	// than the largest.
	duSorted := sortedCopy(cellDU)
	maxDU := duSorted[len(duSorted)-1]
	small := 0
	for _, v := range duSorted {
		if v < maxDU*1e-5 {
			small++
		}
	}
	smallFrac := float64(small) / float64(len(duSorted))
	fmt.Fprintf(&sb, "%s of tagged ASes carry <1e-5 of the largest AS's cellular demand (paper: ~40%% are 6+ orders below).\n",
		report.Pct(smallFrac, 1))
	return &Output{ID: "F4", Title: "Per-AS demand and hit distributions", Text: sb.String(),
		Metrics: map[string]float64{"tiny_as_fraction": smallFrac},
		Paper:   map[string]float64{"tiny_as_fraction": 0.40},
	}, nil
}

// experimentF5 reproduces Fig 5: CDFs of the cellular fraction of demand
// and of subnets across the identified cellular ASes.
func experimentF5(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	var cfds, subnetFracs []float64
	for _, n := range r.Networks {
		cfds = append(cfds, n.CFD())
		subnetFracs = append(subnetFracs, n.CellBlockFraction())
	}
	var sb strings.Builder
	if err := ecdfSeries("Fig 5 — cellular fraction of demand (CFD) CDF", stats.NewECDF(cfds), 21).Render(&sb, 0); err != nil {
		return nil, err
	}
	if err := ecdfSeries("Fig 5 — cellular fraction of subnets CDF", stats.NewECDF(subnetFracs), 21).Render(&sb, 0); err != nil {
		return nil, err
	}
	medCFD := stats.NewECDF(cfds).Quantile(0.5)
	medSub := stats.NewECDF(subnetFracs).Quantile(0.5)
	gap := medCFD - medSub
	fmt.Fprintf(&sb, "Median CFD %s vs median subnet fraction %s — gap %s (paper: gap larger than 0.5 at median).\n",
		report.F(medCFD, 3), report.F(medSub, 3), report.F(gap, 3))
	return &Output{ID: "F5", Title: "Mixed-network distributions", Text: sb.String(),
		Metrics: map[string]float64{"median_gap": gap},
		Paper:   map[string]float64{"median_gap": 0.5},
	}, nil
}

// experimentF6 reproduces Fig 6: subnet-allocation vs demand CDFs across
// cellular ratio for one dedicated (Carrier B) and one mixed (Carrier A)
// operator at paper scale.
func experimentF6(env *Env) (*Output, error) {
	r, err := env.Case()
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{}
	var sb strings.Builder
	for _, cc := range []struct {
		key  string
		name string
		op   *world.Operator
	}{
		{"dedicated", "Fig 6a — large U.S. dedicated network", r.World.CarrierB},
		{"mixed", "Fig 6b — large European mixed network", r.World.CarrierA},
	} {
		announced := make([]netaddr.Block, 0, len(cc.op.Blocks))
		for _, b := range cc.op.Blocks {
			announced = append(announced, b.Block)
		}
		views := aschar.OperatorBlocks(announced, aschar.Inputs{
			Detected: r.Detected, Beacon: r.Beacon, Demand: r.Demand, ASOf: r.ASOf,
		})
		s := report.NewSeries(cc.name, "cellular_pct", "subnet_cdf", "demand_cdf")
		totalDU := 0.0
		for _, v := range views {
			totalDU += v.DU
		}
		cumDU, zeroRatio := 0.0, 0
		for i, v := range views {
			cumDU += v.DU
			if v.Ratio == 0 {
				zeroRatio++
			}
			if i%max(1, len(views)/40) == 0 || i == len(views)-1 {
				s.MustAdd(v.Ratio, float64(i+1)/float64(len(views)), cumDU/totalDU)
			}
		}
		if err := s.Render(&sb, 15); err != nil {
			return nil, err
		}
		metrics[cc.key+"_zero_ratio_frac"] = float64(zeroRatio) / float64(len(views))
	}
	sb.WriteString("Paper: 40% of the dedicated AS's /24s sit at ratio 0 with no demand; in the mixed AS,\n" +
		"<2% of /24s exceed ratio 0.2 yet capture <6% of demand.\n")
	return &Output{ID: "F6", Title: "Operator breakdowns", Text: sb.String(),
		Metrics: metrics,
		Paper:   map[string]float64{"dedicated_zero_ratio_frac": 0.40, "mixed_zero_ratio_frac": 0.95},
	}, nil
}

// experimentF7 reproduces Fig 7: ranked per-AS cellular demand.
func experimentF7(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	var cellDU []float64
	for _, n := range r.Networks {
		cellDU = append(cellDU, n.CellDU)
	}
	pts := stats.RankShare(cellDU)
	s := report.NewSeries("Fig 7 — ranked AS share of global cellular demand", "rank", "share")
	for _, p := range pts {
		s.MustAdd(p.X, p.Y)
	}
	top5 := stats.TopShare(cellDU, 5)
	top10 := stats.TopShare(cellDU, 10)
	gini, err := stats.Gini(cellDU)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := s.Render(&sb, 15); err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "Top-5 ASes: %s of cellular demand (paper 35.9%%); top-10: %s (paper 38%%); Gini %.3f.\n",
		report.Pct(top5, 1), report.Pct(top10, 1), gini)
	return &Output{ID: "F7", Title: "Ranked AS demand", Text: sb.String(),
		Metrics: map[string]float64{"top5_share": top5, "top10_share": top10, "gini": gini},
		Paper:   map[string]float64{"top5_share": 0.359, "top10_share": 0.38},
	}, nil
}

// experimentF8 reproduces Fig 8: ranked subnet demand for cellular vs
// fixed subnets inside the paper-scale mixed European carrier.
func experimentF8(env *Env) (*Output, error) {
	r, err := env.Case()
	if err != nil {
		return nil, err
	}
	op := r.World.CarrierA
	var cellDU, fixedDU []float64
	for _, b := range op.Blocks {
		du := r.Demand.DU(b.Block)
		if du == 0 {
			continue
		}
		if r.Detected.Has(b.Block) {
			cellDU = append(cellDU, du)
		} else {
			fixedDU = append(fixedDU, du)
		}
	}
	cellRank := stats.RankShare(cellDU)
	fixedRank := stats.RankShare(fixedDU)
	s := report.NewSeries("Fig 8 — ranked /24 demand, mixed EU operator", "rank", "cellular_share", "fixed_share")
	n := max(len(cellRank), len(fixedRank))
	for i := 0; i < n; i++ {
		c, f := 0.0, 0.0
		if i < len(cellRank) {
			c = cellRank[i].Y
		}
		if i < len(fixedRank) {
			f = fixedRank[i].Y
		}
		s.MustAdd(float64(i+1), c, f)
	}
	top25 := stats.TopShare(cellDU, 25)
	n993 := stats.MinCountForShare(cellDU, 0.993)
	fixed993 := stats.MinCountForShare(fixedDU, 0.993)
	// The paper reports demand dropping by nearly two orders of magnitude
	// right after the heavy head; measure the largest consecutive-rank drop
	// within the top 50 cellular blocks.
	drop := 0.0
	for i := 1; i < 50 && i < len(cellRank); i++ {
		if cellRank[i].Y > 0 {
			if d := cellRank[i-1].Y / cellRank[i].Y; d > drop {
				drop = d
			}
		}
	}
	var sb strings.Builder
	if err := s.Render(&sb, 15); err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "Top 25 cellular /24s carry %s of cellular demand (paper: 99.3%%); 99.3%% reached at %d cellular /24s vs %d fixed /24s.\n",
		report.Pct(top25, 2), n993, fixed993)
	fmt.Fprintf(&sb, "Demand drop after the heavy head: %sx (paper: nearly two orders of magnitude).\n", report.F(drop, 1))
	return &Output{ID: "F8", Title: "Subnet demand concentration", Text: sb.String(),
		Metrics: map[string]float64{
			"top25_cell_share": top25,
			"cell_blocks_993":  float64(n993),
			"head_tail_drop":   drop,
		},
		Paper: map[string]float64{
			"top25_cell_share": 0.993, "cell_blocks_993": 25, "head_tail_drop": 50,
		},
	}, nil
}

// experimentF9 reproduces Fig 9: the cellular demand fraction of resolvers
// in identified mixed cellular ASes.
func experimentF9(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	fracs := dnsmap.CellFractions(r.ResolverUsage, r.World.ResolverAS, r.MixedASSet())
	if len(fracs) == 0 {
		return nil, fmt.Errorf("pipeline: no resolvers in mixed ASes")
	}
	var sb strings.Builder
	if err := ecdfSeries("Fig 9 — resolver cellular demand fraction CDF (mixed ASes)",
		stats.NewECDF(fracs), 21).Render(&sb, 0); err != nil {
		return nil, err
	}
	// The hi cutoff sits at 0.8: cellular-only resolvers still carry the
	// demand of low-activity cellular blocks the classifier cannot see,
	// which lands them below a naive 0.97 bar.
	sharing := dnsmap.ClassifySharing(fracs, 0.05, 0.80)
	total := float64(len(fracs))
	sharedFrac := float64(sharing.Shared) / total
	var sharedVals []float64
	for _, f := range fracs {
		if f >= 0.05 && f <= 0.80 {
			sharedVals = append(sharedVals, f)
		}
	}
	medianShared := math.NaN()
	if len(sharedVals) > 0 {
		medianShared = stats.NewECDF(sharedVals).Quantile(0.5)
	}
	fmt.Fprintf(&sb, "Shared resolvers: %s (paper: ~60%%); dedicated cellular %s / fixed %s (paper: ~20%% each).\n",
		report.Pct(sharedFrac, 1),
		report.Pct(float64(sharing.CellOnly)/total, 1),
		report.Pct(float64(sharing.FixedOnly)/total, 1))
	fmt.Fprintf(&sb, "Median shared resolver serves %s cellular demand (paper: ~25%%).\n", report.Pct(medianShared, 1))
	return &Output{ID: "F9", Title: "Resolver sharing", Text: sb.String(),
		Metrics: map[string]float64{"shared_fraction": sharedFrac, "median_shared_cell_fraction": medianShared},
		Paper:   map[string]float64{"shared_fraction": 0.60, "median_shared_cell_fraction": 0.25},
	}, nil
}

// fig10Countries lists the paper's Fig 10 operators by country code in
// x-axis order; US and HK appear twice (two operators each).
var fig10Countries = []string{"US", "US", "BR", "VN", "SA", "IN", "HK", "HK", "NG", "DZ"}

// experimentF10 reproduces Fig 10: public DNS usage in selected cellular
// operators around the globe.
func experimentF10(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	// Pick the top cellular ASes per Fig-10 country, by cellular demand.
	byCountry := map[string][]aschar.Network{}
	for _, n := range aschar.RankByCellDU(r.Networks) {
		cc, ok := r.CountryOf(n.ASN)
		if !ok {
			continue
		}
		byCountry[cc] = append(byCountry[cc], n)
	}
	used := map[string]int{}
	t := report.NewTable("Fig 10 — Public DNS usage in selected cellular operators",
		"Operator", "GoogleDNS", "OpenDNS", "Level3", "Total public")
	metrics := map[string]float64{}
	var sb strings.Builder
	for _, cc := range fig10Countries {
		idx := used[cc]
		used[cc]++
		nets := byCountry[cc]
		if idx >= len(nets) {
			continue
		}
		n := nets[idx]
		pu := r.PublicDNS[n.ASN]
		label := fmt.Sprintf("%s%d", cc, idx+1)
		if pu == nil {
			t.Row(label, "-", "-", "-", "-")
			continue
		}
		t.Row(label,
			report.Pct(pu.ProviderShare("GoogleDNS"), 1),
			report.Pct(pu.ProviderShare("OpenDNS"), 1),
			report.Pct(pu.ProviderShare("Level3"), 1),
			report.Pct(pu.PublicShare(), 1))
		metrics["public_share_"+label] = pu.PublicShare()
	}
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	sb.WriteString("Paper: US operators < 2%; IN ~40%; both HK operators > 55%; DZ ~97%.\n")
	return &Output{ID: "F10", Title: "Public DNS usage", Text: sb.String(),
		Metrics: metrics,
		Paper: map[string]float64{
			"public_share_US1": 0.02, "public_share_US2": 0.02,
			"public_share_IN1": 0.40, "public_share_HK1": 0.55,
			"public_share_HK2": 0.55, "public_share_DZ1": 0.97,
		},
	}, nil
}

// experimentF11 reproduces Fig 11: per-continent top-10 countries' share of
// global cellular demand.
func experimentF11(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	metrics := map[string]float64{}
	for _, ct := range geo.Continents() {
		top := r.Macro.TopCountriesByCellDU(ct, 10)
		t := report.NewTable(fmt.Sprintf("Fig 11 — %s: top countries by share of global cellular demand", ct.Name()),
			"Country", "Share of global cellular")
		for _, cs := range top {
			share := r.Macro.CellShareOfGlobal(cs.Country.Code)
			t.Row(cs.Country.Code, report.Pct(share, 2))
		}
		if err := t.Render(&sb); err != nil {
			return nil, err
		}
	}
	metrics["us_share"] = r.Macro.CellShareOfGlobal("US")
	metrics["top5_share"] = r.Macro.TopCountryShares(5)
	metrics["top20_share"] = r.Macro.TopCountryShares(20)
	fmt.Fprintf(&sb, "US share of global cellular demand: %s (paper: >30%%). Top-5 countries: %s (paper 55.7%%); top-20: %s (paper 80%%).\n",
		report.Pct(metrics["us_share"], 1), report.Pct(metrics["top5_share"], 1), report.Pct(metrics["top20_share"], 1))
	return &Output{ID: "F11", Title: "Country demand distribution", Text: sb.String(),
		Metrics: metrics,
		Paper:   map[string]float64{"us_share": 0.30, "top5_share": 0.557, "top20_share": 0.80},
	}, nil
}

// experimentF12 reproduces Fig 12: countries by cellular demand ratio vs
// normalized cellular demand.
func experimentF12(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	pts := r.Macro.Scatter()
	s := report.NewSeries("Fig 12 — country cellular demand vs cellular fraction", "cfd", "cell_du")
	sort.Slice(pts, func(i, j int) bool { return pts[i].CFD < pts[j].CFD })
	for _, p := range pts {
		s.MustAdd(p.CFD, p.CellDU)
	}
	byCode := map[string]float64{}
	for _, p := range pts {
		byCode[p.Code] = p.CFD
	}
	var sb strings.Builder
	if err := s.Render(&sb, 20); err != nil {
		return nil, err
	}
	t := report.NewTable("Fig 12 frontier countries", "Country", "CFD (measured)", "CFD (paper)")
	paperFrontier := map[string]float64{"GH": 0.959, "LA": 0.871, "ID": 0.63, "US": 0.166, "FR": 0.121}
	for _, cc := range []string{"GH", "LA", "ID", "US", "FR"} {
		t.Row(cc, report.F(byCode[cc], 3), report.F(paperFrontier[cc], 3))
	}
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	return &Output{ID: "F12", Title: "Demand-vs-fraction scatter", Text: sb.String(),
		Metrics: map[string]float64{
			"cfd_GH": byCode["GH"], "cfd_LA": byCode["LA"], "cfd_ID": byCode["ID"],
			"cfd_US": byCode["US"], "cfd_FR": byCode["FR"],
		},
		Paper: map[string]float64{
			"cfd_GH": 0.959, "cfd_LA": 0.871, "cfd_ID": 0.63,
			"cfd_US": 0.166, "cfd_FR": 0.121,
		},
	}, nil
}
