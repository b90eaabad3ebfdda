package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cellspot/internal/aschar"
	"cellspot/internal/geo"
	"cellspot/internal/netaddr"
	"cellspot/internal/report"
	"cellspot/internal/stats"
)

// Output is one experiment's result: rendered text plus the headline
// metrics measured, paired with the paper's published values for the same
// keys so EXPERIMENTS.md can diff them.
type Output struct {
	ID      string
	Title   string
	Text    string
	Metrics map[string]float64 // measured
	Paper   map[string]float64 // published
}

// Env lazily materializes the two pipeline runs experiments draw on: the
// global world and the paper-scale three-carrier case study. Lazy
// materialization is mutex-guarded, so an Env may be shared by concurrent
// experiment runners (parallel benchmarks, the race-detector CI).
type Env struct {
	Cfg       Config
	mu        sync.Mutex
	global    *Result
	caseStudy *Result
}

// NewEnv prepares an experiment environment.
func NewEnv(cfg Config) *Env { return &Env{Cfg: cfg} }

// Global returns the global-world pipeline run, computing it on first use.
func (e *Env) Global() (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.global == nil {
		r, err := Run(e.Cfg)
		if err != nil {
			return nil, err
		}
		e.global = r
	}
	return e.global, nil
}

// Case returns the case-study pipeline run, computing it on first use.
func (e *Env) Case() (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.caseStudy == nil {
		r, err := RunCaseStudy(e.Cfg)
		if err != nil {
			return nil, err
		}
		e.caseStudy = r
	}
	return e.caseStudy, nil
}

// ExperimentIDs lists every experiment in paper order, followed by the
// extension experiments (X1: temporal evolution, X2: cellular map).
func ExperimentIDs() []string {
	return []string{"T1", "T2", "F1", "F2", "F3", "T3", "T4", "T5", "T6",
		"F4", "F5", "F6", "F7", "T7", "F8", "F9", "F10", "T8", "F11", "F12",
		"X1", "X2"}
}

// RunExperiment executes one experiment by ID.
func RunExperiment(id string, env *Env) (*Output, error) {
	fn, ok := experimentFuncs[id]
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown experiment %q (known: %s)",
			id, strings.Join(ExperimentIDs(), ", "))
	}
	return fn(env)
}

var experimentFuncs = map[string]func(*Env) (*Output, error){
	"T1": experimentT1, "T2": experimentT2, "F1": experimentF1,
	"F2": experimentF2, "F3": experimentF3, "T3": experimentT3,
	"T4": experimentT4, "T5": experimentT5, "T6": experimentT6,
	"F4": experimentF4, "F5": experimentF5, "F6": experimentF6,
	"F7": experimentF7, "T7": experimentT7, "F8": experimentF8,
	"F9": experimentF9, "F10": experimentF10, "T8": experimentT8,
	"F11": experimentF11, "F12": experimentF12,
	"X1": experimentX1, "X2": experimentX2,
}

// experimentT1 reprints the paper's qualitative prior-work comparison; it
// is documentation, not a measurement.
func experimentT1(*Env) (*Output, error) {
	t := report.NewTable("Table 1 — Existing analyses of cellular network usage (qualitative, reprinted)",
		"Source", "Granularity", "Global", "Cell-vs-fixed comparison")
	rows := [][4]string{
		{"Ericsson Mobility Report", "Continent", "yes", "yes"},
		{"Cisco VNI", "Continent", "yes", "yes"},
		{"Sandvine Global Internet Phenomena", "Continent", "yes", "no"},
		{"Akamai State of the Internet", "Country", "yes", "no"},
		{"OpenSignal State of Mobile Networks", "Country", "yes", "no"},
		{"Flow analysis (Zhang et al.)", "Operator", "no", "no"},
		{"Instrumented handsets (Falaki et al.)", "Handset", "no", "no"},
		{"Cell Spotting (this reproduction)", "IP-level", "yes", "yes"},
	}
	for _, r := range rows {
		t.Row(r[0], r[1], r[2], r[3])
	}
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	return &Output{ID: "T1", Title: "Prior-work comparison", Text: sb.String(),
		Metrics: map[string]float64{}, Paper: map[string]float64{}}, nil
}

// experimentT2 reproduces Table 2: dataset sizes, plus the BEACON-vs-DEMAND
// coverage statistics of §3.2.
func experimentT2(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	scale := r.Config.World.Scale

	b24 := r.Beacon.CountFamily(netaddr.IPv4)
	b48 := r.Beacon.CountFamily(netaddr.IPv6)
	d24 := r.Demand.CountFamily(netaddr.IPv4)
	d48 := r.Demand.CountFamily(netaddr.IPv6)

	// Coverage: share of DEMAND blocks and demand seen in BEACON.
	var coveredBlocks int
	var coveredDU, totalDU float64
	r.Demand.Each(func(b netaddr.Block, du float64) {
		totalDU += du
		if _, ok := r.Beacon.Get(b); ok {
			coveredBlocks++
			coveredDU += du
		}
	})
	blockCov := float64(coveredBlocks) / float64(r.Demand.Blocks())
	demandCov := coveredDU / totalDU

	t := report.NewTable(fmt.Sprintf("Table 2 — CDN datasets (world scale %.3g; paper counts in parentheses)", scale),
		"Source", "Period", "/24", "/48")
	t.Row("BEACON", "Dec 2016 (monthly)",
		fmt.Sprintf("%s (4.7M x scale = %s)", report.Int(b24), report.Int(int(4_700_000*scale))),
		fmt.Sprintf("%s (1.8M x scale = %s)", report.Int(b48), report.Int(int(1_800_000*scale))))
	t.Row("DEMAND", "Dec 24-31 2016 (week)",
		fmt.Sprintf("%s (6.8M x scale = %s)", report.Int(d24), report.Int(int(6_800_000*scale))),
		fmt.Sprintf("%s (909K x scale = %s)", report.Int(d48), report.Int(int(909_000*scale))))
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "BEACON covers %s of DEMAND blocks (paper: 73%%) and %s of platform demand (paper: 92%%).\n",
		report.Pct(blockCov, 1), report.Pct(demandCov, 1))

	return &Output{
		ID: "T2", Title: "Dataset sizes", Text: sb.String(),
		Metrics: map[string]float64{
			"beacon_24_per_scale": float64(b24) / scale,
			"beacon_48_per_scale": float64(b48) / scale,
			"demand_24_per_scale": float64(d24) / scale,
			"block_coverage":      blockCov,
			"demand_coverage":     demandCov,
		},
		Paper: map[string]float64{
			"beacon_24_per_scale": 4_700_000,
			"beacon_48_per_scale": 1_800_000,
			"demand_24_per_scale": 6_800_000,
			"block_coverage":      0.73,
			"demand_coverage":     0.92,
		},
	}, nil
}

// experimentT4 reproduces Table 4: detected cellular subnets per continent
// and their share of active space.
func experimentT4(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	scale := r.Config.World.Scale
	t := report.NewTable(fmt.Sprintf("Table 4 — Detected cellular subnets, Dec 2016 (world scale %.3g)", scale),
		"Continent", "#/24", "#/48", "% active v4", "% active v6")
	paper24 := map[geo.Continent]int{
		geo.Africa: 79091, geo.Asia: 86618, geo.Europe: 65442,
		geo.NorthAmerica: 27595, geo.Oceania: 4352, geo.SouthAmerica: 87589,
	}
	metrics := map[string]float64{}
	paper := map[string]float64{
		"pct_active_v4_AF": 0.532, "pct_active_v4_AS": 0.057,
		"pct_active_v4_EU": 0.048, "pct_active_v4_NA": 0.021,
		"pct_active_v4_OC": 0.054, "pct_active_v4_SA": 0.226,
		"total_cell24_per_scale": 350687,
		"total_cell48_per_scale": 23230,
		"global_pct_active_v4":   0.073,
		"global_pct_active_v6":   0.012,
	}
	var tot24, tot48, act24, act48 int
	for _, ct := range geo.Continents() {
		cs := r.Macro.ByContinent[ct]
		pct4, pct6 := 0.0, 0.0
		if cs.Active24 > 0 {
			pct4 = float64(cs.Cell24) / float64(cs.Active24)
		}
		if cs.Active48 > 0 {
			pct6 = float64(cs.Cell48) / float64(cs.Active48)
		}
		t.Row(ct.String(),
			fmt.Sprintf("%s (paper %s x scale)", report.Int(cs.Cell24), report.Int(paper24[ct])),
			report.Int(cs.Cell48), report.Pct(pct4, 1), report.Pct(pct6, 2))
		metrics["pct_active_v4_"+ct.String()] = pct4
		tot24 += cs.Cell24
		tot48 += cs.Cell48
		act24 += cs.Active24
		act48 += cs.Active48
	}
	t.Row("Total", report.Int(tot24), report.Int(tot48),
		report.Pct(float64(tot24)/float64(act24), 1),
		report.Pct(float64(tot48)/float64(act48), 2))
	metrics["total_cell24_per_scale"] = float64(tot24) / scale
	metrics["total_cell48_per_scale"] = float64(tot48) / scale
	metrics["global_pct_active_v4"] = float64(tot24) / float64(act24)
	metrics["global_pct_active_v6"] = float64(tot48) / float64(act48)

	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	return &Output{ID: "T4", Title: "Cellular subnet census", Text: sb.String(),
		Metrics: metrics, Paper: paper}, nil
}

// experimentT5 reproduces Table 5: the AS filtering funnel.
func experimentT5(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	r1, r2, r3 := r.Filter.Removed()
	t := report.NewTable("Table 5 — AS filtering rules",
		"Rule", "Filtered", "Remaining", "Paper filtered", "Paper remaining")
	t.Row("Straw-man: >=1 cellular CIDR", "-", report.Int(len(r.Filter.Tagged)), "-", "1,263")
	t.Row("1. cellular demand < 0.1 DU", report.Int(r1), report.Int(len(r.Filter.AfterRule1)), "493", "770")
	t.Row("2. < 300 beacon hits", report.Int(r2), report.Int(len(r.Filter.AfterRule2)), "53", "717")
	t.Row("3. CAIDA class (Content/unknown)", report.Int(r3), report.Int(len(r.Filter.AfterRule3)), "49", "668")
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	// Reverse-DNS corroboration of rule 3 (paper §5: proxy PTR names like
	// google-proxy-*.google.com confirmed the exclusions).
	rule3Removed := map[uint32]bool{}
	for _, a := range r.Filter.AfterRule2 {
		rule3Removed[a] = true
	}
	for _, a := range r.Filter.AfterRule3 {
		delete(rule3Removed, a)
	}
	confirmed, falseAlarms := 0, 0
	for a := range rule3Removed {
		if c := r.RDNS[a]; c != nil && c.ProxySuspect() {
			confirmed++
		}
	}
	for _, a := range r.Filter.AfterRule3 {
		if c := r.RDNS[a]; c != nil && c.ProxySuspect() {
			falseAlarms++
		}
	}
	fmt.Fprintf(&sb, "Reverse-DNS corroboration: %d of %d rule-3 removals have proxy-style PTR names;\n"+
		"%d surviving cellular ASes look proxy-like by rDNS (paper confirmed its removals the same way).\n",
		confirmed, len(rule3Removed), falseAlarms)
	return &Output{ID: "T5", Title: "AS filtering funnel", Text: sb.String(),
		Metrics: map[string]float64{
			"tagged":         float64(len(r.Filter.Tagged)),
			"removed1":       float64(r1),
			"removed2":       float64(r2),
			"removed3":       float64(r3),
			"final":          float64(len(r.Filter.AfterRule3)),
			"rdns_confirmed": float64(confirmed),
			"rdns_survivors": float64(falseAlarms),
		},
		Paper: map[string]float64{
			"tagged": 1263, "removed1": 493, "removed2": 53,
			"removed3": 49, "final": 668,
		},
	}, nil
}

// experimentT6 reproduces Table 6: cellular ASes per continent.
func experimentT6(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	perCont := map[geo.Continent]int{}
	countries := map[geo.Continent]map[string]bool{}
	for _, n := range r.Networks {
		cc, ok := r.CountryOf(n.ASN)
		if !ok {
			continue
		}
		c, ok := r.World.Countries.Lookup(cc)
		if !ok {
			continue
		}
		perCont[c.Continent]++
		if countries[c.Continent] == nil {
			countries[c.Continent] = map[string]bool{}
		}
		countries[c.Continent][cc] = true
	}
	paperN := map[geo.Continent]float64{
		geo.Africa: 114, geo.Asia: 213, geo.Europe: 185,
		geo.NorthAmerica: 93, geo.Oceania: 16, geo.SouthAmerica: 48,
	}
	paperAvg := map[geo.Continent]float64{
		geo.Africa: 2.6, geo.Asia: 4.5, geo.Europe: 4.2,
		geo.NorthAmerica: 3.9, geo.Oceania: 2.0, geo.SouthAmerica: 4.0,
	}
	t := report.NewTable("Table 6 — Detected cellular ASes by continent",
		"", "AF", "AS", "EU", "NA", "OC", "SA")
	rowN := []string{"# ASN"}
	rowA := []string{"Avg./country"}
	rowPN := []string{"paper # ASN"}
	rowPA := []string{"paper avg."}
	metrics := map[string]float64{}
	paper := map[string]float64{}
	for _, ct := range geo.Continents() {
		n := perCont[ct]
		avg := 0.0
		if len(countries[ct]) > 0 {
			avg = float64(n) / float64(len(countries[ct]))
		}
		rowN = append(rowN, report.Int(n))
		rowA = append(rowA, report.F(avg, 1))
		rowPN = append(rowPN, report.F(paperN[ct], 0))
		rowPA = append(rowPA, report.F(paperAvg[ct], 1))
		metrics["ases_"+ct.String()] = float64(n)
		paper["ases_"+ct.String()] = paperN[ct]
	}
	t.Row(rowN...)
	t.Row(rowA...)
	t.Row(rowPN...)
	t.Row(rowPA...)
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	return &Output{ID: "T6", Title: "Cellular AS census", Text: sb.String(),
		Metrics: metrics, Paper: paper}, nil
}

// experimentT7 reproduces Table 7: the top ten cellular ASes by demand.
func experimentT7(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	ranked := aschar.RankByCellDU(r.Networks)
	totalCell := 0.0
	for _, n := range ranked {
		totalCell += n.CellDU
	}
	t := report.NewTable("Table 7 — Top ten cellular ASes by demand",
		"Rank", "Country", "Demand (% of cellular)", "Mixed", "Paper (%, country, mixed)")
	paperRows := []struct {
		cc    string
		share float64
		mixed string
	}{
		{"US", 9.4, ""}, {"US", 9.2, ""}, {"US", 5.7, ""}, {"IN", 4.5, ""},
		{"US", 3.8, ""}, {"JP", 3.3, ""}, {"JP", 2.4, "yes"}, {"ID", 1.5, ""},
		{"AU", 1.2, "yes"}, {"JP", 1.0, "yes"},
	}
	metrics := map[string]float64{}
	paper := map[string]float64{}
	top10 := 0.0
	for i := 0; i < 10 && i < len(ranked); i++ {
		n := ranked[i]
		cc, _ := r.CountryOf(n.ASN)
		share := n.CellDU / totalCell
		top10 += share
		mixed := ""
		if !n.Dedicated {
			mixed = "yes"
		}
		pr := paperRows[i]
		t.Row(fmt.Sprintf("%d", i+1), cc, report.Pct(share, 1), mixed,
			fmt.Sprintf("%.1f%%, %s, %s", pr.share, pr.cc, orDash(pr.mixed)))
		metrics[fmt.Sprintf("rank%d_share", i+1)] = share
		paper[fmt.Sprintf("rank%d_share", i+1)] = pr.share / 100
	}
	metrics["top10_share"] = top10
	paper["top10_share"] = 0.38
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "Top-10 ASes hold %s of global cellular demand (paper: 38%%).\n",
		report.Pct(top10, 1))
	return &Output{ID: "T7", Title: "Top-10 cellular ASes", Text: sb.String(),
		Metrics: metrics, Paper: paper}, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// experimentT8 reproduces Table 8: cellular demand statistics by continent.
func experimentT8(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 8 — Cellular demand by continent (China excluded)",
		"Continent", "Cellular frac", "Share of global cellular", "Subscribers (M)", "Demand/1000 subs")
	paperVals := map[geo.Continent][4]float64{
		geo.Oceania:      {0.234, 0.030, 43.3, 0.0113},
		geo.Africa:       {0.255, 0.029, 954, 0.0005},
		geo.SouthAmerica: {0.125, 0.041, 499, 0.0013},
		geo.Europe:       {0.118, 0.159, 968, 0.0026},
		geo.NorthAmerica: {0.166, 0.350, 594, 0.0095},
		geo.Asia:         {0.260, 0.389, 2766, 0.0022},
	}
	metrics := map[string]float64{}
	paper := map[string]float64{}
	order := []geo.Continent{geo.Oceania, geo.Africa, geo.SouthAmerica,
		geo.Europe, geo.NorthAmerica, geo.Asia}
	for _, ct := range order {
		cs := r.Macro.ByContinent[ct]
		globalShare := 0.0
		if r.Macro.GlobalCellDU > 0 {
			globalShare = cs.CellDU / r.Macro.GlobalCellDU
		}
		pv := paperVals[ct]
		t.Row(ct.Name(),
			fmt.Sprintf("%s (paper %.1f%%)", report.Pct(cs.CellFrac(), 1), pv[0]*100),
			fmt.Sprintf("%s (paper %.1f%%)", report.Pct(globalShare, 1), pv[1]*100),
			fmt.Sprintf("%.1f (paper %.0f)", cs.SubscribersM, pv[2]),
			fmt.Sprintf("%.4f (paper %.4f)", cs.DemandPerKSubscribers(), pv[3]))
		key := ct.String()
		metrics["cellfrac_"+key] = cs.CellFrac()
		metrics["globalshare_"+key] = globalShare
		paper["cellfrac_"+key] = pv[0]
		paper["globalshare_"+key] = pv[1]
	}
	t.Row("Overall", report.Pct(r.Macro.GlobalCellFrac(), 1)+" (paper 16.2%)", "100%", "", "")
	metrics["global_cellfrac"] = r.Macro.GlobalCellFrac()
	paper["global_cellfrac"] = 0.162
	var sb strings.Builder
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	return &Output{ID: "T8", Title: "Continent demand statistics", Text: sb.String(),
		Metrics: metrics, Paper: paper}, nil
}

// ecdfSeries converts an ECDF into a rendered series.
func ecdfSeries(title string, e *stats.ECDF, n int) *report.Series {
	s := report.NewSeries(title, "x", "cdf")
	for _, p := range e.Points(n) {
		s.MustAdd(p.X, p.Y)
	}
	return s
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
