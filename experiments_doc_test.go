package cellspot

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// spelling is how EXPERIMENTS.md writes a summary metric: the report's
// four-decimal value in units of 1e-4, with drop digits rounded off half
// up, dec decimals kept, and a suffix.
type spelling struct {
	drop, dec int
	suffix    string
}

var (
	pct0  = spelling{2, 0, "%"} // 0.7002 → "70%"
	pct1  = spelling{1, 1, "%"} // 0.1118 → "11.2%"
	pct2  = spelling{0, 2, "%"} // 0.9921 → "99.21%"
	frac2 = spelling{2, 2, ""}  // 0.9698 → "0.97"
	frac3 = spelling{1, 3, ""}  // 0.8987 → "0.899"
	count = spelling{4, 0, ""}  // 666.0000 → "666"
	kilo  = spelling{7, 0, "k"} // 381300.0000 → "381k"
)

func (s spelling) spell(units int64) string {
	p := int64(math.Pow10(s.drop))
	q := (units + p/2) / p
	if s.dec == 0 {
		return strconv.FormatInt(q, 10) + s.suffix
	}
	d := int64(math.Pow10(s.dec))
	return fmt.Sprintf("%d.%0*d%s", q/d, s.dec, q%d, s.suffix)
}

// docClaim is one measured value that EXPERIMENTS.md quotes from the
// summary of experiments_output.txt: the table row quoting it (an index
// ID or a headline finding), the summary metric, its spelling, and the
// text around it, with %s where the value goes.
type docClaim struct {
	row, metric string
	sp          spelling
	around      string
}

var docClaims = []docClaim{
	{"T2", "T2/block_coverage", pct0, "coverage %s/"},
	{"T2", "T2/demand_coverage", pct0, "/%s vs"},
	{"F1", "F1/dec2016_share", pct1, "%s vs 13.2%%"},
	{"F1", "F1/google_share", pct1, "Google %s"},
	{"F3", "F3/plateau_min_f1_A", frac3, "%s (A)"},
	{"F3", "F3/plateau_min_f1_B", frac3, "%s (B)"},
	{"F3", "F3/plateau_min_f1_C", frac3, "%s (C)"},
	{"T3", "T3/A_CIDR_precision", frac2, "A: %s/"},
	{"T3", "T3/A_CIDR_recall", frac2, "/%s CIDR"},
	{"T3", "T3/A_Demand_recall", frac2, "%s demand recall"},
	{"T4", "T4/global_pct_active_v4", pct1, "global %s vs"},
	{"T4", "T4/global_pct_active_v6", pct1, ", %s vs"},
	{"T5", "T5/tagged", count, "%s→"},
	{"T5", "T5/final", count, "→%s"},
	{"T6", "T6/ases_AF", count, "AF %s/"},
	{"T6", "T6/ases_AS", count, "AS %s/"},
	{"T6", "T6/ases_EU", count, "EU %s/"},
	{"T6", "T6/ases_NA", count, "NA %s/"},
	{"T6", "T6/ases_OC", count, "OC %s/"},
	{"T6", "T6/ases_SA", count, "SA %s/"},
	{"F4", "F4/tiny_as_fraction", pct1, "%s vs"},
	{"F5", "F5/median_gap", frac2, "gap %s"},
	{"F6", "F6/dedicated_zero_ratio_frac", pct1, "%s and"},
	{"F6", "F6/mixed_zero_ratio_frac", pct1, "and %s ratio-0"},
	{"F7", "F7/top5_share", pct1, "%s and"},
	{"F7", "F7/top10_share", pct1, "and %s"},
	{"F8", "F8/top25_cell_share", pct2, "top-25 = %s"},
	{"F8", "F8/cell_blocks_993", count, "at %s blocks"},
	{"F9", "F9/shared_fraction", pct1, "%s shared"},
	{"F9", "F9/median_shared_cell_fraction", pct1, "median %s"},
	{"F10", "F10/public_share_US1", pct1, "US %s"},
	{"F10", "F10/public_share_IN1", pct1, "IN %s"},
	{"F10", "F10/public_share_HK1", pct1, "HK %s/"},
	{"F10", "F10/public_share_HK2", pct1, "/%s, DZ"},
	{"F10", "F10/public_share_DZ1", pct1, "DZ %s"},
	{"T8", "T8/global_cellfrac", pct1, "global %s vs"},
	{"F11", "F11/us_share", pct1, "%s / "},
	{"F11", "F11/top5_share", pct1, " / %s / "},
	{"F11", "F11/top20_share", pct1, " / %s"},
	{"F12", "F12/cfd_US", frac3, "US %s/"},
	{"F12", "F12/cfd_FR", frac3, "FR %s/"},
	{"F12", "F12/cfd_ID", frac3, "ID %s/"},
	{"F12", "F12/cfd_LA", frac3, "LA %s/"},
	{"F12", "F12/cfd_GH", frac3, "GH %s/"},

	{"Cellular share of global demand", "T8/global_cellfrac", pct1, "%s"},
	{"Cellular ASes after filtering", "T5/final", count, "%s"},
	{"Cellular /24s (scaled to paper)", "T4/total_cell24_per_scale", kilo, "≈%s"},
	{"Cellular /48s (scaled to paper)", "T4/total_cell48_per_scale", kilo, "≈%s"},
	{"Carrier A precision / CIDR recall / demand recall", "T3/A_CIDR_precision", frac2, "%s / "},
	{"Carrier A precision / CIDR recall / demand recall", "T3/A_CIDR_recall", frac2, " / %s / "},
	{"Carrier A precision / CIDR recall / demand recall", "T3/A_Demand_recall", frac2, " / %s"},
	{"Top-25 /24s of mixed EU op's cellular demand", "F8/top25_cell_share", pct1, "%s"},
}

// docTable returns the rows of the markdown table under heading, keyed
// by their first cell, each mapped to its last cell: the measured value.
func docTable(t *testing.T, doc, heading string) map[string]string {
	t.Helper()
	i := strings.Index(doc, "\n"+heading+"\n")
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(doc[i+len(heading)+2:], "\n") {
		if strings.HasPrefix(line, "## ") {
			break
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(line, "| ") || len(cells) < 3 {
			continue
		}
		rows[cells[0]] = cells[len(cells)-1]
	}
	return rows
}

// TestExperimentsDocMatchesReport checks every measured value that
// EXPERIMENTS.md's experiment index and headline tables quote from the
// report's summary against that metric's row in experiments_output.txt,
// which CI regenerates, so the document cannot drift from the report.
func TestExperimentsDocMatchesReport(t *testing.T) {
	docBytes, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	const summary = "Summary — measured vs paper"
	i := strings.Index(string(report), summary)
	if i < 0 {
		t.Fatalf("experiments_output.txt has no %q section", summary)
	}
	measured := make(map[string]int64)
	for _, line := range strings.Split(string(report)[i:], "\n") {
		f := strings.Fields(line)
		if len(f) != 5 {
			continue
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			continue
		}
		measured[f[0]+"/"+f[1]] = int64(math.Round(v * 1e4))
	}

	doc := string(docBytes)
	rows := docTable(t, doc, "## Experiment index")
	for k, v := range docTable(t, doc, "## Headline findings") {
		rows[k] = v
	}
	for _, c := range docClaims {
		units, ok := measured[c.metric]
		if !ok {
			t.Errorf("%s: the report's summary has no %s row", c.row, c.metric)
			continue
		}
		cell, ok := rows[c.row]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no %q row", c.row)
			continue
		}
		if want := fmt.Sprintf(c.around, c.sp.spell(units)); !strings.Contains(cell, want) {
			t.Errorf("EXPERIMENTS.md %q reads %q; the report's %s spells %q", c.row, cell, c.metric, want)
		}
	}
}
