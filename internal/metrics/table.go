package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Table renders aligned plain-text tables: the output format of
// chronos-figures, which regenerates the paper's tables and figure series.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends one row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float with the given decimal places, mapping
// infinities to "-inf"/"+inf".
func FormatFloat(v float64, decimals int) string {
	if math.IsInf(v, -1) {
		return "-inf"
	}
	if math.IsInf(v, 1) {
		return "+inf"
	}
	return fmt.Sprintf("%.*f", decimals, v)
}
