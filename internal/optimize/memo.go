package optimize

import (
	"math"
	"sync"

	"chronos/internal/analysis"
)

// memoModel caches PoCD and MachineTime evaluations by r. The closed-form
// theorems cost hundreds of floating-point operations per call, and both the
// Algorithm 1 bracketing search and the greedy batch allocator re-evaluate
// the same r values many times (the batch loop is O(total_r * M) model
// calls, most of them repeats).
//
// Two things distinguish it from a plain map-backed memo. First, when the
// wrapped model is one of the three raw strategy structs, bind routes all
// evaluation through an embedded analysis.Evaluator — the recurrence kernel
// that hoists the r-invariant terms of the closed forms — without a separate
// allocation. Second, the caches are dense NaN-sentinel slices indexed by r
// rather than maps, so a pooled memoModel solves without allocating: the
// slices keep their capacity (at most searchCap entries, the bound on every r
// a solve probes) across pool cycles; an r past it is evaluated uncached. A genuine NaN model output
// is simply recomputed on each probe, which is correct, just not cached.
//
// Not safe for concurrent use; acquire one per solve call.
type memoModel struct {
	model analysis.Model // evaluation target; &ev when strategy-bound
	ev    analysis.Evaluator
	pocd  []float64 // dense r-indexed caches; NaN marks an empty slot
	mt    []float64
}

var _ analysis.Model = (*memoModel)(nil)

var memoPool = sync.Pool{New: func() any { return new(memoModel) }}

// Memoize wraps a model with per-r caching of PoCD and MachineTime.
// Wrapping an already-memoized model returns it unchanged. The wrapper is
// heap-allocated and garbage-collected; internal callers use acquire /
// acquireStrategy to recycle wrappers through a pool instead.
func Memoize(m analysis.Model) analysis.Model {
	if mm, ok := m.(*memoModel); ok {
		return mm
	}
	mm := new(memoModel)
	mm.bind(m)
	return mm
}

// acquire returns a pooled memo over m, or m itself when it is already a
// memoModel. The caller owns the wrapper iff pooled is true, and must then
// release it after the last use of any value derived from it.
func acquire(m analysis.Model) (mm *memoModel, pooled bool) {
	if c, ok := m.(*memoModel); ok {
		return c, false
	}
	mm = memoPool.Get().(*memoModel)
	mm.bind(m)
	return mm, true
}

// acquireStrategy returns a pooled memo evaluating (s, p) through the
// recurrence kernel, skipping the interface round-trip entirely.
func acquireStrategy(s analysis.Strategy, p analysis.Params) *memoModel {
	mm := memoPool.Get().(*memoModel)
	mm.ev.Reset(s, p)
	mm.model = &mm.ev
	mm.clearCaches()
	return mm
}

// bind points the memo at its evaluation target, routing raw strategy
// structs through the embedded kernel.
func (m *memoModel) bind(base analysis.Model) {
	switch b := base.(type) {
	case analysis.Clone:
		m.ev.Reset(analysis.StrategyClone, b.P)
		m.model = &m.ev
	case analysis.Restart:
		m.ev.Reset(analysis.StrategyRestart, b.P)
		m.model = &m.ev
	case analysis.Resume:
		m.ev.Reset(analysis.StrategyResume, b.P)
		m.model = &m.ev
	default:
		m.model = base
	}
	m.clearCaches()
}

func (m *memoModel) clearCaches() {
	m.pocd = m.pocd[:0]
	m.mt = m.mt[:0]
}

// release returns the memo to the pool. The dense slices keep their capacity
// (at most searchCap entries each).
func (m *memoModel) release() {
	m.model = nil
	m.clearCaches()
	memoPool.Put(m)
}

func denseLoad(s []float64, r int) (float64, bool) {
	if r >= 0 && r < len(s) {
		if v := s[r]; !math.IsNaN(v) {
			return v, true
		}
	}
	return 0, false
}

func denseStore(s []float64, r int, v float64) []float64 {
	for len(s) <= r {
		s = append(s, math.NaN())
	}
	s[r] = v
	return s
}

func (m *memoModel) PoCD(r int) float64 {
	if v, ok := denseLoad(m.pocd, r); ok {
		return v
	}
	v := m.model.PoCD(r)
	if r < searchCap {
		m.pocd = denseStore(m.pocd, r, v)
	}
	return v
}

func (m *memoModel) MachineTime(r int) float64 {
	if v, ok := denseLoad(m.mt, r); ok {
		return v
	}
	v := m.model.MachineTime(r)
	if r < searchCap {
		m.mt = denseStore(m.mt, r, v)
	}
	return v
}

// Name implements Model.
func (m *memoModel) Name() string { return m.model.Name() }

// Params implements Model.
func (m *memoModel) Params() analysis.Params { return m.model.Params() }

// Gamma implements Model.
func (m *memoModel) Gamma() float64 { return m.model.Gamma() }

// scanProbe evaluates (pocd, machine time, utility) at r for the sequential
// scan loops (Phase 2, the capped scan, frontier construction). When the
// memo is kernel-bound it rides the Evaluator's Advance cursor — the squares
// table built at Reset makes sequential probes popcount-cheap — and either
// way both metrics land in the memo for the Result assembly that follows.
func (m *memoModel) scanProbe(cfg Config, r int) (pocd, mt, u float64) {
	pocd, okP := denseLoad(m.pocd, r)
	mt, okM := denseLoad(m.mt, r)
	if !okP || !okM {
		if r >= searchCap {
			return m.PoCD(r), m.MachineTime(r), cfg.Utility(m, r)
		}
		if m.model == &m.ev {
			m.ev.Seek(r)
			pr := m.ev.Advance()
			if !okP {
				pocd = pr.PoCD
				m.pocd = denseStore(m.pocd, r, pocd)
			}
			if !okM {
				mt = pr.MachineTime
				m.mt = denseStore(m.mt, r, mt)
			}
		} else {
			if !okP {
				pocd = m.PoCD(r)
			}
			if !okM {
				mt = m.MachineTime(r)
			}
		}
	}
	return pocd, mt, cfg.utilityAt(pocd, mt)
}
