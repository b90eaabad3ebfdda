// Package report renders experiment output: fixed-width text tables for the
// paper's tables and numeric series for its figures. Rendering
// is deterministic so experiment output can be diffed across runs.
package report

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a titled text table with aligned columns.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; missing cells render empty, extra cells are an error
// at render time.
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	for _, row := range t.rows {
		if len(row) > len(t.headers) {
			return fmt.Errorf("report: row has %d cells for %d columns", len(row), len(t.headers))
		}
	}
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, w))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float with the given precision.
func F(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// Pct formats a fraction as a percentage with the given precision.
func Pct(v float64, prec int) string {
	return strconv.FormatFloat(v*100, 'f', prec, 64) + "%"
}

// Int formats an integer with thousands separators (1,234,567).
func Int(n int) string {
	s := strconv.Itoa(n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// Series is a titled multi-column numeric dataset standing in for one of
// the paper's figures.
type Series struct {
	Title   string
	Columns []string
	Rows    [][]float64
}

// NewSeries creates a series with the given column names.
func NewSeries(title string, columns ...string) *Series {
	return &Series{Title: title, Columns: columns}
}

// Add appends one row; the number of values must match the columns.
func (s *Series) Add(values ...float64) error {
	if len(values) != len(s.Columns) {
		return fmt.Errorf("report: series %q: %d values for %d columns", s.Title, len(values), len(s.Columns))
	}
	s.Rows = append(s.Rows, values)
	return nil
}

// MustAdd is Add that panics; for experiment code where the column count is
// statically known.
func (s *Series) MustAdd(values ...float64) {
	if err := s.Add(values...); err != nil {
		panic(err)
	}
}

// Render writes the series as an aligned text block with a sampled subset
// of rows when the series is long (maxRows <= 0 renders everything).
func (s *Series) Render(w io.Writer, maxRows int) error {
	t := NewTable(s.Title, s.Columns...)
	rows := s.Rows
	if maxRows > 0 && len(rows) > maxRows {
		// Evenly sample rows, always keeping first and last.
		sampled := make([][]float64, 0, maxRows)
		for i := 0; i < maxRows; i++ {
			idx := i * (len(rows) - 1) / (maxRows - 1)
			sampled = append(sampled, rows[idx])
		}
		rows = sampled
	}
	for _, r := range rows {
		cells := make([]string, len(r))
		for i, v := range r {
			cells[i] = F(v, 4)
		}
		t.Row(cells...)
	}
	return t.Render(w)
}
