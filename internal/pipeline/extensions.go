package pipeline

import (
	"bytes"
	"fmt"
	"strings"

	"cellspot/internal/cellmap"
	"cellspot/internal/evolve"
	"cellspot/internal/report"
)

// Extension experiments go beyond the paper's published artifacts:
//
//   - X1 implements the paper's §8 future work: the temporal evolution of
//     cellular address space across monthly snapshots.
//   - X2 builds the publishable cellular-map artifact (aggregated CIDRs
//     with metadata) through Result.Map, which hands the run's own
//     detected set and AS-filter verdict to mapbuild.Assemble, and
//     characterizes it.

func experimentX1(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	cfg := evolve.DefaultConfig()
	cfg.Beacon = r.Config.Beacon
	cfg.Demand = r.Config.Demand
	cfg.Threshold = r.Config.Threshold
	tl, err := evolve.Run(r.World, cfg)
	if err != nil {
		return nil, err
	}
	s := report.NewSeries("X1 — monthly evolution of detected cellular space (paper §8 future work)",
		"month_index", "detected_blocks", "cell_du")
	for _, snap := range tl.Snapshots {
		s.MustAdd(float64(snap.Month.Index()), float64(snap.Detected.Len()), snap.CellDU)
	}
	var sb strings.Builder
	if err := s.Render(&sb, 0); err != nil {
		return nil, err
	}
	churn := tl.Churn()
	t := report.NewTable("Month-over-month churn", "From", "To", "Jaccard", "Added", "Removed", "Top-100 overlap")
	var meanJ, meanTop float64
	for _, c := range churn {
		t.Row(c.From.String(), c.To.String(), report.F(c.Jaccard, 3),
			report.Int(c.Added), report.Int(c.Removed), report.F(c.TopOverlap, 3))
		meanJ += c.Jaccard
		meanTop += c.TopOverlap
	}
	if n := float64(len(churn)); n > 0 {
		meanJ /= n
		meanTop /= n
	}
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	fmt.Fprintf(&sb, "At %.0f%% monthly reassignment the detected set stays %s similar month to month,\n",
		cfg.ChurnRate*100, report.Pct(meanJ, 0))
	sb.WriteString("while CGNAT heavy hitters remain highly stable — monthly re-runs of the method suffice.\n")
	return &Output{ID: "X1", Title: "Temporal evolution (extension)", Text: sb.String(),
		Metrics: map[string]float64{"mean_jaccard": meanJ, "mean_top_overlap": meanTop},
		Paper:   map[string]float64{}, // no published values: this is the paper's future work
	}, nil
}

func experimentX2(env *Env) (*Output, error) {
	r, err := env.Global()
	if err != nil {
		return nil, err
	}
	m, err := r.Map("2016-12")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		return nil, err
	}
	// Compression ratio of the publishable artifact: prefixes vs the
	// blocks they cover, which are the detected blocks of the ASes that
	// pass the AS filter.
	published := 0
	for _, e := range m.Entries() {
		bits := 24
		if e.Prefix.Addr().Is6() {
			bits = 48
		}
		published += 1 << (bits - e.Prefix.Bits())
	}
	ratio := 0.0
	if m.Len() > 0 {
		ratio = float64(published) / float64(m.Len())
	}
	coverage := m.TotalDU() / 100000

	var sb strings.Builder
	t := report.NewTable("X2 — publishable cellular map", "Metric", "Value")
	t.Row("detected blocks", report.Int(r.Detected.Len()))
	t.Row("published blocks (AS filter applied)", report.Int(published))
	t.Row("published prefixes after CIDR aggregation", report.Int(m.Len()))
	t.Row("blocks per prefix", report.F(ratio, 2))
	t.Row("demand covered", report.Pct(coverage, 1))
	t.Row("serialized size", fmt.Sprintf("%s bytes", report.Int(buf.Len())))
	if err := t.Render(&sb); err != nil {
		return nil, err
	}
	// Round-trip sanity: the serialized artifact reloads identically.
	m2, err := cellmap.Read(&buf)
	if err != nil {
		return nil, fmt.Errorf("pipeline: map round trip: %w", err)
	}
	for _, e := range m.Entries() {
		if got, ok := m2.Lookup(e.Prefix.Addr()); !ok || got.Prefix != e.Prefix {
			return nil, fmt.Errorf("pipeline: map round trip lost %s", e.Prefix)
		}
	}
	fmt.Fprintf(&sb, "Round trip: %d prefixes reloaded, lookups live.\n", m2.Len())
	return &Output{ID: "X2", Title: "Cellular map artifact (extension)", Text: sb.String(),
		Metrics: map[string]float64{
			"published_prefixes": float64(m.Len()),
			"blocks_per_prefix":  ratio,
			"demand_coverage":    coverage,
		},
		Paper: map[string]float64{},
	}, nil
}
