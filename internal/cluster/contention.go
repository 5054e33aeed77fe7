package cluster

import "chronos/internal/pareto"

// ContentionModel produces a slowdown factor (>= 1) for an attempt granted a
// container at time now on the given node. It stands in for the background
// "Stress" applications the paper injects on its testbed: co-scheduled load
// inflates task service times multiplicatively.
type ContentionModel interface {
	Slowdown(now float64, nodeID int, seed uint64) float64
}

// HotspotContention models a cluster where a fraction of placements land on
// busy nodes: with probability P the attempt is slowed by a factor drawn
// from 1 + Exp(Mean-1); otherwise it runs at full speed. This produces the
// sporadic, node-local stragglers observed in production traces.
type HotspotContention struct {
	// P is the probability a placement is contended.
	P float64
	// Mean is the mean slowdown factor of contended placements (> 1).
	Mean float64
}

// Slowdown implements ContentionModel.
func (h HotspotContention) Slowdown(now float64, nodeID int, seed uint64) float64 {
	rng := pareto.NewStream(seed)
	if rng.Float64() >= h.P {
		return 1
	}
	extra := h.Mean - 1
	if extra <= 0 {
		return 1
	}
	return 1 + rng.ExpFloat64()*extra
}
