package metrics

import (
	"math"
	"sort"
	"sync/atomic"
)

// This file holds the concurrency-safe primitives behind chronosd's
// /metrics endpoint: a lock-free counter and a fixed-bucket latency
// histogram whose snapshot matches the Prometheus histogram conventions
// (cumulative bucket counts plus _sum and _count). The simulation-side
// Histogram is single-goroutine by design; these are the serving
// counterparts, safe under arbitrary handler concurrency.

// Counter is a monotonically increasing, concurrency-safe counter.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// DefaultLatencyBuckets covers 100 µs to 10 s, the plausible range from a
// cache hit to a bounded simulation run.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// LatencyHistogram accumulates duration observations (in seconds) into
// fixed buckets with lock-free atomics.
type LatencyHistogram struct {
	bounds []float64       // ascending upper bounds; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1; counts[i] = observations <= bounds[i]'s bucket

	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum, CAS-updated
}

// NewLatencyHistogram builds a histogram over the given ascending bucket
// upper bounds; with no bounds it uses DefaultLatencyBuckets.
func NewLatencyHistogram(bounds ...float64) *LatencyHistogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &LatencyHistogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one duration in seconds.
func (h *LatencyHistogram) Observe(seconds float64) {
	// Binary-search the first bound >= seconds; the overflow bucket is last.
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + seconds)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough view for text exposition:
// Cumulative[i] counts observations in buckets 0..i (Prometheus `le`
// semantics); the final entry equals Count.
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Snapshot renders the histogram state. Concurrent observations may tear
// across buckets by a few counts — acceptable for monitoring output.
func (h *LatencyHistogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		snap.Cumulative[i] = running
	}
	snap.Count = running
	return snap
}
