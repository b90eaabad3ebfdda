package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "Name", "Value")
	tb.Row("alpha", "1")
	tb.Row("b", "22222")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Demo\n====") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title, underline, header, separator, 2 rows
	if len(lines) != 6 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "Name ") || !strings.Contains(lines[2], "Value") {
		t.Errorf("header line = %q", lines[2])
	}
	// All data lines equal width (aligned).
	if len(lines[4]) > len(lines[2])+2 {
		t.Errorf("row wider than header area: %q vs %q", lines[4], lines[2])
	}
}

func TestTableRowTooWide(t *testing.T) {
	tb := NewTable("x", "A")
	tb.Row("1", "2")
	if err := tb.Render(&strings.Builder{}); err == nil {
		t.Error("oversized row accepted")
	}
}

func TestTableShortRow(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.Row("1")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1") {
		t.Error("short row lost")
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
	if Pct(0.162, 1) != "16.2%" {
		t.Errorf("Pct = %q", Pct(0.162, 1))
	}
	cases := map[int]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		350687:   "350,687",
		-1234567: "-1,234,567",
	}
	for n, want := range cases {
		if got := Int(n); got != want {
			t.Errorf("Int(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("CDF", "x", "y")
	if err := s.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(1); err == nil {
		t.Error("wrong arity accepted")
	}
	s.MustAdd(3, 4)
	var sb strings.Builder
	if err := s.Render(&sb, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1.0000") || !strings.Contains(sb.String(), "4.0000") {
		t.Errorf("render output:\n%s", sb.String())
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic on arity error")
		}
	}()
	s.MustAdd(1, 2, 3)
}

func TestSeriesSampling(t *testing.T) {
	s := NewSeries("big", "x")
	for i := 0; i < 1000; i++ {
		s.MustAdd(float64(i))
	}
	var sb strings.Builder
	if err := s.Render(&sb, 11); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines > 16 {
		t.Errorf("sampled render too long: %d lines", lines)
	}
	// First and last values retained.
	if !strings.Contains(sb.String(), "0.0000") || !strings.Contains(sb.String(), "999.0000") {
		t.Error("sampling dropped endpoints")
	}
}
