package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestHistogram(t *testing.T) {
	h := Histogram{}
	for _, v := range []int{2, 2, 2, 4, 4, 1} {
		h[v]++
	}
	if h.Total() != 6 {
		t.Errorf("Total = %d", h.Total())
	}
	if mode, ok := h.Mode(); !ok || mode != 2 {
		t.Errorf("Mode = %d, %v", mode, ok)
	}
	if got := h.Mean(); math.Abs(got-15.0/6) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if keys := h.Keys(); len(keys) != 3 || keys[0] != 1 || keys[2] != 4 {
		t.Errorf("Keys = %v", keys)
	}
	if got := h.String(); got != "1:1 2:3 4:2" {
		t.Errorf("String = %q", got)
	}
	var empty Histogram
	if _, ok := empty.Mode(); ok {
		t.Error("empty histogram has a mode")
	}
	if empty.Mean() != 0 {
		t.Error("empty histogram mean != 0")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Strategy", "PoCD", "Cost", "Utility")
	tab.AddRow("Clone", FormatFloat(0.93212, 3), FormatFloat(9373.21, 1), FormatFloat(-0.376, 3))
	tab.AddRow("Hadoop-NS", FormatFloat(0.1, 3), FormatFloat(100, 1), FormatFloat(math.Inf(-1), 3))
	tab.AddRow("short")
	out := tab.String()
	if tab.Rows() != 3 {
		t.Errorf("Rows = %d", tab.Rows())
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // header + separator + 3 rows
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Strategy") || !strings.Contains(lines[0], "Utility") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "0.932") || !strings.Contains(out, "9373.2") {
		t.Errorf("missing formatted values:\n%s", out)
	}
	if !strings.Contains(out, "-inf") {
		t.Errorf("missing -inf rendering:\n%s", out)
	}
	// All lines aligned to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Errorf("header and separator widths differ:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	if got := FormatFloat(math.Inf(1), 2); got != "+inf" {
		t.Errorf("FormatFloat(+inf) = %q", got)
	}
	if got := FormatFloat(1.23456, 2); got != "1.23" {
		t.Errorf("FormatFloat = %q", got)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("PoCD per strategy")
	c.Add("Hadoop-NS", 0.1)
	c.Add("S-Resume", 0.98)
	out := c.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "PoCD per strategy") {
		t.Errorf("missing title: %q", lines[0])
	}
	// The larger value gets the longer bar.
	nsBar := strings.Count(lines[1], "#")
	resumeBar := strings.Count(lines[2], "#")
	if resumeBar <= nsBar {
		t.Errorf("bar lengths not proportional: %d vs %d", nsBar, resumeBar)
	}
	if !strings.Contains(out, "0.980") {
		t.Errorf("missing value rendering:\n%s", out)
	}
	empty := NewBarChart("x")
	if !strings.Contains(empty.String(), "no data") {
		t.Error("empty chart missing placeholder")
	}
}

func TestBarChartZeroValues(t *testing.T) {
	c := NewBarChart("")
	c.Add("a", 0)
	c.Add("b", 0)
	out := c.String()
	if strings.Contains(out, "#") {
		t.Errorf("zero values rendered bars:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil); got != "" {
		t.Errorf("empty sparkline = %q", got)
	}
	got := Sparkline([]float64{1, 2, 3, 4})
	if runeLen := len([]rune(got)); runeLen != 4 {
		t.Fatalf("sparkline length %d, want 4", runeLen)
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline extremes wrong: %q", got)
	}
	// Constant series renders the lowest block everywhere.
	flat := []rune(Sparkline([]float64{5, 5, 5}))
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat sparkline = %q", string(flat))
			break
		}
	}
}
