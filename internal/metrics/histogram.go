// Package metrics renders the paper's evaluation — PoCD, cost, net utility and
// the optimal-r histograms of Figure 5 — as aligned text tables and ASCII
// charts, and holds the latency histogram and Prometheus text encoding the
// serving layer exports.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts integer-valued observations by value: the optimal-r
// distribution of Figure 5, as chronos.Report.RHistogram carries it.
type Histogram map[int]int

// Mode returns the most frequent value (smallest wins ties); ok is false
// for an empty histogram.
func (h Histogram) Mode() (v int, ok bool) {
	best, bestCount := 0, -1
	for _, k := range h.Keys() {
		if c := h[k]; c > bestCount {
			best, bestCount = k, c
		}
	}
	return best, bestCount >= 0
}

// Keys returns the observed values in ascending order.
func (h Histogram) Keys() []int {
	keys := make([]int, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// String renders "v:count" pairs in ascending order.
func (h Histogram) String() string {
	var b strings.Builder
	for i, k := range h.Keys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", k, h[k])
	}
	return b.String()
}
