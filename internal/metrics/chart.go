package metrics

import (
	"fmt"
	"math"
	"strings"
)

// The paper's evaluation is presented as figures; the harness renders the
// same series as ASCII charts so `chronos-figures` output can be eyeballed
// against the published plots without leaving the terminal.

// barWidth is the longest bar, in characters: the maximum value's.
const barWidth = 40

// BarChart renders labeled horizontal bars scaled to the maximum value.
type BarChart struct {
	// Title is printed above the bars.
	Title string

	labels []string
	values []float64
}

// NewBarChart starts an empty chart.
func NewBarChart(title string) *BarChart {
	return &BarChart{Title: title}
}

// Add appends one bar.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// String renders the chart.
func (c *BarChart) String() string {
	maxVal, maxLabel := 0.0, 0
	for i, v := range c.values {
		if v > maxVal {
			maxVal = v
		}
		if len(c.labels[i]) > maxLabel {
			maxLabel = len(c.labels[i])
		}
	}
	var b strings.Builder
	if c.Title != "" {
		b.WriteString(c.Title)
		b.WriteByte('\n')
	}
	for i, v := range c.values {
		bar := 0
		if maxVal > 0 && v > 0 {
			bar = int(math.Round(v / maxVal * barWidth))
		}
		fmt.Fprintf(&b, "%-*s |%s %s\n",
			maxLabel, c.labels[i], strings.Repeat("#", bar), FormatFloat(v, 3))
	}
	return b.String()
}

// Sparkline condenses a numeric series into a one-line block-character
// profile — the shape of a sweep (cost vs theta, PoCD vs beta) at a glance.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
